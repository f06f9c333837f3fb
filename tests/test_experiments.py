import json

import numpy as np
import pytest

from nibp_lab.experiments import (
    ExperimentConfig,
    emit_plot_script,
    run_experiment,
    write_csv,
)
from nibp_lab.cli import main


def _small_cfg(preset, **kw):
    base = dict(
        preset=preset,
        n_list=(2,),
        L_list=(2, 4),
        p_list=(0.3,),
        instances=2,
        thetas=3,
        maxiter=5,
        seed=0,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(preset="unknown")
    with pytest.raises(ValueError):
        ExperimentConfig(preset="layers_sweep", n_list=())
    with pytest.raises(ValueError):
        ExperimentConfig(preset="layers_sweep", instances=0)


def test_config_from_json_scalars_become_tuples():
    cfg = ExperimentConfig.from_json(
        {"preset": "noise_sweep", "n": 3, "L": 6, "p": [0.1, 0.2]}
    )
    assert cfg.n_list == (3,) and cfg.L_list == (6,)
    assert cfg.p_list == (0.1, 0.2)


def test_layers_sweep_shape_and_monotone_bound():
    result = run_experiment(_small_cfg("layers_sweep"))
    cols = dict(zip(result.columns, zip(*result.rows)))
    # up to three tracked locations per depth value (shallow depths dedupe)
    assert 2 * 2 <= len(result.rows) <= 2 * 3
    assert set(cols["L"]) == {2, 4}
    assert all(b > 0 for b in cols["bound"])
    assert result.metadata["seed"] == 0


def test_noise_sweep_rows():
    cfg = _small_cfg("noise_sweep", L_list=(3,), p_list=(0.1, 0.4))
    result = run_experiment(cfg)
    cols = dict(zip(result.columns, zip(*result.rows)))
    assert set(cols["p"]) == {0.1, 0.4}


def test_final_cost_rows():
    cfg = _small_cfg("final_cost", L_list=(2,), p_list=(0.0, 0.4))
    result = run_experiment(cfg)
    cols = dict(zip(result.columns, zip(*result.rows)))
    assert len(result.rows) == 2 * 2
    assert all(np.isfinite(c) for c in cols["final_cost"])
    # noiseless center column still reports Tr(H)/d
    assert all(np.isfinite(c) for c in cols["center"])


def test_width_scaling_rows():
    cfg = _small_cfg("width_scaling", n_list=(2, 3), L_list=(2,))
    result = run_experiment(cfg)
    cols = dict(zip(result.columns, zip(*result.rows)))
    assert list(cols["n"]) == [2, 3]
    for ref, mean, ratio in zip(
        cols["reference"], cols["mean_abs_grad"], cols["ratio"]
    ):
        assert abs(ratio - mean / ref) < 1e-12


def test_trainability_rows():
    cfg = _small_cfg("trainability", n_list=(2,), L_list=(6,))
    result = run_experiment(cfg)
    cols = dict(zip(result.columns, zip(*result.rows)))
    # both the configured noise and the depolarizing control appear
    assert set(cols["noise_type"]) == {"depolarizing"} or len(set(cols["noise_type"])) == 2


def test_csv_determinism_and_force(tmp_path):
    cfg = _small_cfg("layers_sweep")
    a = write_csv(run_experiment(cfg), tmp_path / "a.csv")
    b = write_csv(run_experiment(cfg), tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()
    with pytest.raises(FileExistsError):
        write_csv(run_experiment(cfg), tmp_path / "a.csv")
    write_csv(run_experiment(cfg), tmp_path / "a.csv", force=True)


def test_plot_script_emission(tmp_path):
    cfg = _small_cfg("layers_sweep")
    csv_path = write_csv(run_experiment(cfg), tmp_path / "sweep.csv")
    script = emit_plot_script(csv_path, "layers_sweep", tmp_path / "plot.py")
    text = script.read_text()
    assert "matplotlib" in text and "sweep.csv" in text
    compile(text, str(script), "exec")  # must at least be valid python


def _run_cli(tmp_path, command, cfg, extra=()):
    cfg_path = tmp_path / f"{command}_cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / command
    return main(
        [command, "--config", str(cfg_path), "--out", str(out), *extra]
    ), out


def test_cli_channel(tmp_path):
    code, out = _run_cli(
        tmp_path, "channel", {"name": "amplitude_damping", "p": 0.36}
    )
    assert code == 0
    data = json.loads((out / "channel.json").read_text())
    np.testing.assert_allclose(data["c_bloch"], [0.0, 0.0, 0.36], atol=1e-12)
    np.testing.assert_allclose(
        sorted(data["singular_values"], reverse=True), [0.8, 0.8, 0.64], atol=1e-12
    )
    assert data["class"] == "hs_contractive_nonunital"


def test_cli_grad_scan(tmp_path):
    cfg = {"n": 2, "L": 2, "p": 0.3, "noise_type": "depolarizing",
           "instances": 2, "thetas": 2}
    code, out = _run_cli(tmp_path, "grad-scan", cfg)
    assert code == 0
    lines = (out / "grad_scan.csv").read_text().splitlines()
    assert lines[0].startswith("n,L,p,noise_type,layer,slot,mean_abs_grad")
    assert len(lines) > 1


def test_cli_bound_report(tmp_path):
    cfg = {"n": 2, "L": 6, "p": 0.3, "noise_type": "amplitude_damping"}
    code, out = _run_cli(tmp_path, "bound-report", cfg)
    assert code == 0
    data = json.loads((out / "bound_report.json").read_text())
    for key in ("r", "per_layer_q", "nibp_bound_curve", "L0", "nils", "theorem3"):
        assert key in data
    assert data["r"] < 1.0
    assert not data["nils"]["unital"]


def test_cli_train(tmp_path):
    cfg = {"n": 2, "L": 2, "p": 0.3, "noise_type": "depolarizing", "maxiter": 5}
    code, out = _run_cli(tmp_path, "train", cfg)
    assert code == 0
    lines = (out / "train.csv").read_text().splitlines()
    assert lines[0] == "iter,cost,step_size"
    assert len(lines) == 6
    summary = json.loads((out / "train_summary.json").read_text())
    assert summary["evaluations"] == 11


def test_cli_experiment_and_overwrite_refusal(tmp_path):
    cfg = {"preset": "noise_sweep", "n": 2, "L": 2, "p": [0.2],
           "instances": 2, "thetas": 2}
    code, out = _run_cli(tmp_path, "experiment", cfg)
    assert code == 0
    assert (out / "noise_sweep.csv").exists()
    assert (out / "plot_noise_sweep.py").exists()
    assert (out / "noise_sweep_meta.json").exists()
    # second run without --force must fail cleanly
    code, _ = _run_cli(tmp_path, "experiment", cfg)
    assert code == 1
    code, _ = _run_cli(tmp_path, "experiment", cfg, extra=("--force",))
    assert code == 0


def test_cli_seed_override_changes_output(tmp_path):
    cfg = {"preset": "noise_sweep", "n": 2, "L": 2, "p": [0.2],
           "instances": 2, "thetas": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    main(["experiment", "--config", str(cfg_path), "--out", str(out1), "--seed", "1"])
    main(["experiment", "--config", str(cfg_path), "--out", str(out2), "--seed", "2"])
    assert (out1 / "noise_sweep.csv").read_text() != (out2 / "noise_sweep.csv").read_text()


def test_cli_grad_scan_label_matches_simulated_noise(tmp_path):
    # omitted noise_type and p: the rows are labelled with the noise that
    # was simulated, so they equal a run that names it explicitly
    base = {"n": 2, "L": 2, "instances": 2, "thetas": 2}
    for sub in ("implicit", "explicit"):
        (tmp_path / sub).mkdir()
    code, implicit = _run_cli(tmp_path / "implicit", "grad-scan", base)
    assert code == 0
    explicit_cfg = dict(base, noise_type="depolarizing", p=0.3)
    code, explicit = _run_cli(tmp_path / "explicit", "grad-scan", explicit_cfg)
    assert code == 0
    text = (implicit / "grad_scan.csv").read_text()
    assert text == (explicit / "grad_scan.csv").read_text()
    assert ",0.3,depolarizing," in text.splitlines()[1]


def test_final_cost_phase_flip_zero_is_not_noiseless():
    # phase_flip(0) is a certain Z flip on every qubit, not the identity
    flip = run_experiment(_small_cfg("final_cost", L_list=(2,), p_list=(0.0,),
                                     noise_type="phase_flip", instances=1))
    clean = run_experiment(_small_cfg("final_cost", L_list=(2,), p_list=(0.0,),
                                      noise_type="none", instances=1))
    cols = flip.columns.index("final_cost")
    assert flip.rows[0][cols] != clean.rows[0][cols]


def test_cli_train_phase_flip_zero_is_not_noiseless(tmp_path):
    summaries = {}
    for noise_type in ("phase_flip", "none"):
        cfg = {"n": 2, "L": 2, "p": 0.0, "noise_type": noise_type, "maxiter": 3}
        (tmp_path / noise_type).mkdir()
        code, out = _run_cli(tmp_path / noise_type, "train", cfg)
        assert code == 0
        summaries[noise_type] = json.loads((out / "train_summary.json").read_text())
    assert summaries["phase_flip"]["final_cost"] != summaries["none"]["final_cost"]


@pytest.mark.parametrize("preset", ["final_cost", "width_scaling"])
def test_explicit_depth_20_is_kept(preset):
    # an explicit L=20 is not mistaken for "no depth given"
    cfg = _small_cfg(preset, L_list=(20,), instances=1, thetas=1, maxiter=1)
    result = run_experiment(cfg)
    col = result.columns.index("L")
    assert result.rows and all(row[col] == 20 for row in result.rows)


def test_default_depth_per_preset():
    for preset, depth in [("final_cost", 5), ("width_scaling", 10),
                          ("layers_sweep", 20), ("noise_sweep", 20),
                          ("trainability", 20)]:
        assert ExperimentConfig(preset=preset).L_list == (depth,)
        assert ExperimentConfig.from_json({"preset": preset}).L_list == (depth,)
        assert ExperimentConfig.from_json({"preset": preset, "L": 20}).L_list == (20,)


_CLI_CONFIGS = {
    "channel": {"name": "amplitude_damping", "p": 0.36},
    "grad-scan": {"n": 2, "L": 2, "instances": 1, "thetas": 2},
    "bound-report": {"n": 2, "L": 4, "p": 0.3, "noise_type": "amplitude_damping"},
    "train": {"n": 2, "L": 2, "p": 0.3, "noise_type": "depolarizing", "maxiter": 2},
    "experiment": {"preset": "noise_sweep", "n": 2, "L": 2, "p": [0.2],
                   "instances": 1, "thetas": 2},
}


@pytest.mark.parametrize("command", sorted(_CLI_CONFIGS))
def test_cli_rerun_refuses_overwrite_unless_forced(tmp_path, command, capsys):
    code, out = _run_cli(tmp_path, command, _CLI_CONFIGS[command])
    assert code == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first
    # a rerun that differs only in its seed would write different bytes
    code, _ = _run_cli(tmp_path, command, _CLI_CONFIGS[command], extra=("--seed", "5"))
    assert code == 1
    assert "exists" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == first
    code, _ = _run_cli(tmp_path, command, _CLI_CONFIGS[command], extra=("--force",))
    assert code == 0
