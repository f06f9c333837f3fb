import json
import logging
import math
import runpy
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from nibp_lab import circuits
from nibp_lab.bounds import nibp_bound
from nibp_lab.channels import affine_rep
from nibp_lab.circuits import NoiseSpec
from nibp_lab.experiments import (
    ConfigError,
    ExperimentConfig,
    emit_plot_script,
    run_experiment,
    write_csv,
)
from nibp_lab.cli import _COMMANDS, main
from nibp_lab.hamiltonians import h_norm, random_two_local


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


@pytest.mark.parametrize("kw, key", [
    ({"instances": True}, "instances"),
    ({"seed": False}, "seed"),
    ({"L_list": (2.5,)}, "L"),
    ({"n_list": (12,)}, "n"),  # random_two_local stops at MAX_QUBITS
    ({"p_list": ("0.3",)}, "p"),
    ({"thetas": "5"}, "thetas"),
    # a cell's seed keys p to 1e-4, so these cells would share one seed
    ({"p_list": (0.3, 0.3)}, "p"),
    ({"p_list": (0.1, 0.2, 0.10004)}, "p"),
    # a repeated n or L would run its cells twice with the same seeds
    ({"n_list": (2, 3, 2)}, "n"),
    ({"L_list": (2, 2)}, "L"),
])
def test_python_config_is_checked_by_the_json_rules(kw, key):
    with pytest.raises(ConfigError) as err:
        ExperimentConfig(preset="noise_sweep", **kw)
    assert err.value.key == key


def test_python_config_fields_are_cast_like_json():
    cfg = ExperimentConfig(preset="noise_sweep", n_list=[2], L_list=(3.0,), p_list=(0,))
    assert cfg.n_list == (2,) and cfg.L_list == (3,) and cfg.p_list == (0.0,)
    assert type(cfg.L_list[0]) is int and type(cfg.p_list[0]) is float
    # p values one seed key (1e-4) apart keep their own seeds
    assert ExperimentConfig(preset="noise_sweep", p_list=(0.3, 0.3001)).p_list == (0.3, 0.3001)


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


def _drawn_h_norms(n, seed, instances):
    """||h|| of Hamiltonian i of a gradient cell, i < instances, redrawn by
    the rule the cell draws them by."""
    return [h_norm(random_two_local(n, np.random.default_rng([seed, i])))
            for i in range(instances)]


def test_layers_sweep_bound_is_the_drawn_h_norm_times_r_to_the_L():
    cfg = _small_cfg("layers_sweep", n_list=(3,))
    result = run_experiment(cfg)
    r = affine_rep(NoiseSpec.named("depolarizing", 0.3).layer_channels).operator_norm()
    for row in result.rows:
        cols = dict(zip(result.columns, row))
        hmax = max(_drawn_h_norms(cols["n"], cols["seed"], cfg.instances))
        assert cols["bound"] == nibp_bound(hmax, r, cols["L"])


@pytest.mark.parametrize(
    "noise_type, p", [("none", 0.3), ("depolarizing", 0.0), ("identity", 0.3)])
def test_noiseless_rows_have_no_bound(noise_type, p):
    # ||M|| of the identity channel rounds to 0.9999999999999998 < 1; the
    # rows used to carry the finite ||h|| r^L of a contracting channel
    result = run_experiment(_small_cfg("layers_sweep", noise_type=noise_type, p_list=(p,)))
    cols = dict(zip(result.columns, zip(*result.rows)))
    assert all(np.isnan(b) for b in cols["bound"])
    assert all(np.isfinite(v) for v in cols["mean_abs_grad"])


@pytest.mark.parametrize("preset, kw, cells", [
    ("layers_sweep", {}, 2),
    ("noise_sweep", {"L_list": (3,), "p_list": (0.1, 0.4)}, 2),
    ("final_cost", {"L_list": (2,), "p_list": (0.0, 0.4)}, 2),
    ("width_scaling", {"n_list": (2, 3), "L_list": (2,)}, 2),
    # the default depolarizing noise is its own control: one set of cells
    ("trainability", {"n_list": (2, 3), "L_list": (4,)}, 2),
    ("trainability", {"n_list": (2, 3), "L_list": (4,), "noise_type": "amplitude_damping"}, 4),
])
def test_run_experiment_logs_one_line_per_cell(preset, kw, cells, caplog, tmp_path):
    cfg = _small_cfg(preset, **kw)
    quiet = write_csv(run_experiment(cfg), tmp_path / "quiet.csv")
    logger = "nibp_lab.experiments"
    with caplog.at_level("INFO", logger=logger):
        logged = write_csv(run_experiment(cfg), tmp_path / "logged.csv")
    records = [r for r in caplog.records if r.name == logger]
    assert [r.levelname for r in records] == ["INFO"] * cells
    assert [r.getMessage().split(" done")[0] for r in records] == [
        f"{preset}: cell {i}/{cells}" for i in range(1, cells + 1)]
    assert logged.read_bytes() == quiet.read_bytes()
    assert logging.getLogger(logger).handlers == []


@pytest.mark.parametrize("preset, kw, built", [
    ("layers_sweep", {"L_list": (2, 3, 4)}, 1),
    ("noise_sweep", {"L_list": (3,), "p_list": (0.1, 0.4)}, 2),
    ("final_cost", {"L_list": (2,), "p_list": (0.1, 0.4)}, 2),
    ("width_scaling", {"n_list": (2, 3), "L_list": (2,)}, 1),
    ("trainability", {"n_list": (2, 3), "L_list": (4,), "noise_type": "amplitude_damping"}, 2),
    ("trainability", {"n_list": (2, 3), "L_list": (4,)}, 1),
])
def test_a_run_builds_one_channel_per_noise_type_and_p(preset, kw, built, monkeypatch):
    # the cells of one (noise_type, p) share one spec, so its channel builds
    # its kernel tables once a run; before, every cell built its own
    # channel, and the depth bound's r one more
    cfg = _small_cfg(preset, **{"instances": 1, "thetas": 1, "maxiter": 2, **kw})
    calls = []
    named_channel = circuits.named_channel
    monkeypatch.setattr(circuits, "named_channel",
                        lambda *args: calls.append(args) or named_channel(*args))
    run_experiment(cfg)
    assert len(calls) == len(set(calls)) == built


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
    for n, seed, ref in zip(cols["n"], cols["seed"], cols["reference"]):
        mean_h = np.mean(_drawn_h_norms(n, seed, cfg.instances))
        assert ref == float(mean_h / math.sqrt((n * n + n) / 2))


def test_width_scaling_runs_the_configured_instances_at_every_width():
    # n >= 5 once ran max(instances // 2, 3) Hamiltonians: 3 here
    cfg = _small_cfg("width_scaling", n_list=(5,), L_list=(2,), instances=1, thetas=1)
    result = run_experiment(cfg)
    cols = dict(zip(result.columns, zip(*result.rows)))
    assert cols["samples"] == (1,)


def test_trainability_rows():
    cfg = _small_cfg("trainability", n_list=(2,), L_list=(6,))
    result = run_experiment(cfg)
    cols = dict(zip(result.columns, zip(*result.rows)))
    # both the configured noise and the depolarizing control appear
    assert set(cols["noise_type"]) == {"depolarizing"} or len(set(cols["noise_type"])) == 2


@pytest.mark.parametrize("noise_type, types", [
    ("depolarizing", ("depolarizing",)),
    ("amplitude_damping", ("amplitude_damping", "depolarizing")),
])
def test_trainability_writes_each_row_once(noise_type, types):
    # under the default depolarizing noise the control was the same noise,
    # and every cell ran twice with the same seed and values
    cfg = _small_cfg("trainability", n_list=(2, 3), L_list=(4,), noise_type=noise_type,
                     instances=1, thetas=1)
    rows = run_experiment(cfg).rows
    assert len(set(rows)) == len(rows)
    assert tuple(dict.fromkeys(row[3] for row in rows)) == types
    # a cell writes one row per suffix distance: 0, 1, 2 at n = 2; 0, 2 at n = 3
    assert len(rows) == len(types) * (3 + 2)


@pytest.mark.parametrize("preset, kw, key", [
    ("layers_sweep", {"n_list": (2, 3)}, "n"),
    ("layers_sweep", {"p_list": (0.1, 0.3)}, "p"),
    ("noise_sweep", {"n_list": (2, 3), "L_list": (2,)}, "n"),
    ("noise_sweep", {"L_list": (2, 4)}, "L"),
    ("final_cost", {"n_list": (2, 3), "L_list": (2,)}, "n"),
    ("final_cost", {"L_list": (2, 4)}, "L"),
    ("width_scaling", {"L_list": (2, 4)}, "L"),
    ("width_scaling", {"L_list": (2,), "p_list": (0.1, 0.3)}, "p"),
    ("trainability", {"L_list": (4, 6)}, "L"),
    ("trainability", {"L_list": (4,), "p_list": (0.1, 0.3)}, "p"),
])
def test_a_preset_refuses_a_second_value_of_a_list_it_does_not_sweep(preset, kw, key):
    # each preset ran only the first value of such a list and dropped the
    # rest without a word
    with pytest.raises(ConfigError) as err:
        _small_cfg(preset, **kw)
    assert err.value.key == key
    assert preset in str(err.value)


def test_cli_refuses_a_second_value_of_a_list_the_preset_does_not_sweep(tmp_path, capsys):
    # this config once exited 0 with rows for n = 2 and p = 0.1 only
    cfg = {"preset": "layers_sweep", "n": [2, 4], "L": [2], "p": [0.1, 0.3],
           "instances": 1, "thetas": 1}
    code, out = _run_cli(tmp_path, "experiment", cfg)
    assert code == 1
    assert "config key 'n'" in capsys.readouterr().err
    assert not out.exists()


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


def test_cli_channel_builds_the_affine_map_once(tmp_path, monkeypatch):
    # the class and the operator norm are read off the one map the
    # command builds, not off a second build inside classify
    from nibp_lab import channels, cli

    calls = []

    def counted(ch):
        calls.append(ch)
        return affine_rep(ch)

    monkeypatch.setattr(channels, "affine_rep", counted)
    monkeypatch.setattr(cli, "affine_rep", counted)
    code, out = _run_cli(tmp_path, "channel", {"name": "amplitude_damping", "p": 0.36})
    assert code == 0
    assert len(calls) == 1
    data = json.loads((out / "channel.json").read_text())
    assert data["class"] == "hs_contractive_nonunital"
    assert data["operator_norm"] == data["singular_values"][0]


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


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_cli_rerun_with_a_missing_output_writes_nothing(tmp_path, command):
    # every output path is checked before any is written, so a rerun that
    # would overwrite one output leaves the missing one missing
    code, out = _run_cli(tmp_path, command, _CLI_CONFIGS[command])
    assert code == 0
    for missing in sorted(p.name for p in out.iterdir()):
        (out / missing).unlink()
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        code, _ = _run_cli(tmp_path, command, _CLI_CONFIGS[command],
                           extra=("--seed", "5"))
        assert code == 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before, missing
        code, _ = _run_cli(tmp_path, command, _CLI_CONFIGS[command],
                           extra=("--force",))
        assert code == 0


def _fake_pyplot(saved):
    """Stand-ins for matplotlib and pyplot that record savefig paths."""
    class Axes:
        def __getattr__(self, name):
            return lambda *args, **kwargs: None

    class Figure:
        def savefig(self, path, **kwargs):
            saved.append(Path(path))

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda: (Figure(), Axes())
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.pyplot = pyplot
    return {"matplotlib": matplotlib, "matplotlib.pyplot": pyplot}


def test_plot_script_is_relocatable(tmp_path, monkeypatch):
    cfg = _CLI_CONFIGS["experiment"]
    scripts = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        code, out = _run_cli(tmp_path / sub, "experiment", cfg)
        assert code == 0
        scripts.append(out / "plot_noise_sweep.py")
    text = scripts[0].read_text()
    assert scripts[1].read_text() == text
    assert str(tmp_path) not in text
    for script in scripts:
        compile(script.read_text(), str(script), "exec")
    # moved elsewhere and run from another directory, the script still
    # reads its CSV and saves the figure beside itself
    moved = tmp_path / "moved"
    scripts[0].parent.rename(moved)
    saved = []
    for name, module in _fake_pyplot(saved).items():
        monkeypatch.setitem(sys.modules, name, module)
    monkeypatch.chdir(tmp_path / "b")
    runpy.run_path(str(moved / "plot_noise_sweep.py"))
    assert saved == [moved.resolve() / "noise_sweep.png"]


@pytest.mark.parametrize("command", sorted(_CLI_CONFIGS))
def test_cli_rejects_unknown_config_keys(tmp_path, command, capsys):
    cfg = dict(_CLI_CONFIGS[command], typo_key=1, other_typo=2)
    code, out = _run_cli(tmp_path, command, cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "typo_key" in err and "other_typo" in err
    assert not out.exists()  # refused before any work


@pytest.mark.parametrize(
    "command, cfg, key",
    [
        ("experiment", {"preset": "bogus"}, "preset"),
        ("bound-report", {"n": 2, "L": 4, "bifurcation_layer": 9}, "bifurcation_layer"),
        # below L = 3 theorem 3 has no bifurcation layer: 7 was once ignored
        # there, with exit 0 and no theorem3 block
        ("bound-report", {"n": 2, "L": 2, "bifurcation_layer": 7}, "bifurcation_layer"),
        ("train", {"noise_type": "depolarising"}, "noise_type"),
        ("bound-report", {"n": 4}, "n"),  # the affine path stops at n = 3
        ("bound-report", {"n": 2, "L": 4, "depth_constant": 0}, "depth_constant"),
        ("grad-scan", {"n": "three"}, "n"),
        ("grad-scan", {"n": 2, "L": 2, "locations": [[5, 0]]}, "locations"),
        ("train", {"n": 2, "L": 2, "maxiter": 0}, "maxiter"),
        ("experiment", {"preset": "layers_sweep", "p": [0.2, 1.5]}, "p"),
        ("experiment", {"preset": "noise_sweep", "noise_type": "dephasing"}, "noise_type"),
        ("experiment", {"preset": "trainability", "n": 3, "L": 2}, "L"),
        ("experiment", {"preset": "trainability", "n": [2, 5], "L": 3}, "L"),
        ("grad-scan", {"n": 2, "L": 2, "locations": []}, "locations"),
        ("channel", {"name": "bogus"}, "name"),
        ("channel", {"name": "depolarizing", "p": "x"}, "p"),
        ("channel", {"name": "depolarizing", "p": 1.5}, "p"),
        ("channel", {"name": "depolarizing", "p": -0.2}, "p"),
        ("channel", {}, "kraus"),
        ("channel", {"kraus": [[[1, 0]]]}, "kraus"),
        ("channel", {"kraus": [[[[1, 0], [0, 0]], [[0, 0], [0.5, 0]]]]}, "kraus"),  # not TP
        ("train", {"n": 2, "L": 2, "seed": -1}, "seed"),
        # a user-given location listed twice would pool one draw's samples
        ("grad-scan", {"n": 2, "L": 2, "locations": [[0, 0], [0, 0]]}, "locations"),
        ("bound-report", {"n": 2, "L": 4, "locality": -3}, "locality"),
        # an int key takes an integral number that is not a bool; int() would
        # read 2.7 as depth 2 and true as 1
        ("grad-scan", {"n": 2, "L": 2.7, "instances": 1, "thetas": 1}, "L"),
        ("grad-scan", {"n": 2, "L": 2, "instances": True, "thetas": 1}, "instances"),
        # a float key takes a finite number; NaN passes every range comparison
        ("grad-scan", {"n": 2, "L": 2, "p": float("nan"), "instances": 1, "thetas": 1}, "p"),
        ("train", {"n": 2, "L": 2, "p": float("nan"), "noise_type": "depolarizing"}, "p"),
        ("experiment", {"preset": "noise_sweep", "n": 2, "L": 2, "p": [0.2, float("nan")],
                        "instances": 1, "thetas": 1}, "p"),
        ("bound-report", {"n": 2, "L": 4, "depth_constant": float("inf")}, "depth_constant"),
        # a key the given channel form would ignore
        ("channel", {"name": "identity", "kraus": 5}, "kraus"),
        ("channel", {"kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]], "p": 0.7}, "p"),
        # a number key takes a number, never a string that reads as one
        ("grad-scan", {"n": 2, "L": "3", "instances": 1, "thetas": 1}, "L"),
        ("experiment", {"preset": "noise_sweep", "n": 2, "L": 2, "p": "0.3",
                        "instances": 1, "thetas": 1}, "p"),
        ("train", {"n": 2, "L": 2, "seed": "5"}, "seed"),
        # experiment caps n where grad-scan does
        ("experiment", {"preset": "noise_sweep", "n": 12, "L": 2,
                        "instances": 1, "thetas": 1}, "n"),
        # a location is a pair of ints: True once ran as slot 1, and 1.0
        # passed the membership check (1.0 == 1) to fail in gate_at
        ("grad-scan", {"n": 2, "L": 2, "instances": 1, "thetas": 1,
                       "locations": [[0, True]]}, "locations"),
        ("grad-scan", {"n": 2, "L": 2, "instances": 1, "thetas": 1,
                       "locations": [[1.0, 0]]}, "locations"),
        # n is read off the matrices; a config n that disagrees is refused
        ("channel", {"n": 2, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}, "n"),
        # two p values that round to one seed key would share their cells' seeds
        ("experiment", {"preset": "noise_sweep", "n": 2, "L": 2, "p": [0.3, 0.30001],
                        "instances": 1, "thetas": 1}, "p"),
        # a repeated n or L would run its cells twice with the same seeds
        ("experiment", {"preset": "width_scaling", "n": [2, 3, 3], "L": 2,
                        "instances": 1, "thetas": 1}, "n"),
        ("experiment", {"preset": "layers_sweep", "n": 2, "L": [2, 4, 2],
                        "instances": 1, "thetas": 1}, "L"),
    ],
)
def test_cli_bad_config_value_is_one_line_naming_the_key(
    tmp_path, command, cfg, key, capsys
):
    code, out = _run_cli(tmp_path, command, cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert f"config key {key!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(_CLI_CONFIGS))
@pytest.mark.parametrize("text, problem", [
    (None, "No such file or directory"),
    ('{"n": ', "Expecting value"),
    ("[1, 2]", "holds a JSON list, not an object"),
    ("3", "holds a JSON int, not an object"),
], ids=["missing", "not_json", "list", "number"])
def test_cli_unreadable_config_file_is_one_line_naming_it(tmp_path, command, text, problem,
                                                          capsys):
    # each case once ended in a traceback: FileNotFoundError,
    # JSONDecodeError, and a TypeError from the key check
    cfg_path = tmp_path / "cfg.json"
    if text is not None:
        cfg_path.write_text(text)
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"config file {cfg_path}: ")
    assert problem in err[0]
    assert not out.exists()


# the first output each command writes
_FIRST_OUTPUT = {"channel": "channel.json", "grad-scan": "grad_scan.csv",
                 "bound-report": "bound_report.json", "train": "train.csv",
                 "experiment": "noise_sweep.csv"}


@pytest.mark.parametrize("command", sorted(_CLI_CONFIGS))
def test_cli_unusable_out_is_one_line_naming_it(tmp_path, command, capsys, monkeypatch):
    # an --out under a regular file once ended in a NotADirectoryError
    # traceback, which grad-scan and experiment reached only after the
    # whole sweep: it is refused before the command runs
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_CLI_CONFIGS[command]))
    afile = tmp_path / "afile"
    afile.write_text("kept")
    _, keys = _COMMANDS[command]
    with monkeypatch.context() as mp:
        mp.setitem(_COMMANDS, command, (lambda *args: pytest.fail("the command ran"), keys))
        for out in (afile / "sub", afile / "sub" / "deeper", afile):
            code = main([command, "--config", str(cfg_path), "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err.splitlines()
            assert err == [f"--out {out}: {afile} is not a directory"]
    assert afile.read_text() == "kept"
    # a write that fails after the work is one line naming --out too
    out = tmp_path / "out"
    (out / _FIRST_OUTPUT[command]).mkdir(parents=True)
    code = main([command, "--config", str(cfg_path), "--out", str(out), "--force"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"--out {out}: ")
    assert str(out / _FIRST_OUTPUT[command]) in err[0]


@pytest.mark.parametrize("location, reason", [
    ([5, 0], "circuit has no gate at (5, 0)"),
    ([0, 2], "gate at (0, 2) carries no parameter"),
])
def test_cli_grad_scan_refusal_names_the_location(tmp_path, capsys, location, reason):
    # the location is read through Circuit.parameter, so the CLI gives the
    # circuit's own reason
    cfg = {"n": 2, "L": 2, "instances": 1, "thetas": 1, "locations": [location]}
    code, out = _run_cli(tmp_path, "grad-scan", cfg)
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"config key 'locations': {reason}"]
    assert not out.exists()


def test_cli_negative_seed_override_is_one_line_naming_seed(tmp_path, capsys):
    cfg = {"n": 2, "L": 2, "instances": 1, "thetas": 1}
    code, out = _run_cli(tmp_path, "grad-scan", cfg, extra=("--seed", "-4"))
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["config key 'seed': -4 outside [0, None]"]
    assert not out.exists()


def test_bound_report_accepts_noise_type_none(tmp_path):
    cfg = {"n": 2, "L": 4, "noise_type": "none"}
    code, out = _run_cli(tmp_path, "bound-report", cfg)
    assert code == 0
    report = json.loads((out / "bound_report.json").read_text())
    assert report["r"] == 1.0
    assert report["nils"]["unital"] and report["nils"]["lambda_L"] == 0.0
    assert not report["theorem3"]["applicable"]
    # the same report as the explicit identity channel
    (tmp_path / "id").mkdir()
    code, same = _run_cli(tmp_path / "id", "bound-report", dict(cfg, noise_type="identity"))
    assert code == 0
    assert (same / "bound_report.json").read_bytes() == (out / "bound_report.json").read_bytes()


class _ReadRecorder(dict):
    """A dict that records which keys are read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def test_experiment_json_keys_are_the_keys_from_json_reads():
    data = _ReadRecorder({"preset": "noise_sweep", "L": 2})
    ExperimentConfig.from_json(data)
    assert data.read == set(ExperimentConfig.JSON_SPEC)


_RECORDING_CONFIGS = {
    "channel": {"n": 1, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]},
    "grad-scan": {"n": 2, "L": 2, "instances": 1, "thetas": 1},
    "bound-report": {"n": 2, "L": 4},
    "train": {"n": 2, "L": 2, "maxiter": 1},
    "experiment": {"preset": "noise_sweep", "n": 2, "L": 2, "instances": 1, "thetas": 1},
}


@pytest.mark.parametrize("command", sorted(_RECORDING_CONFIGS))
def test_cli_command_reads_exactly_its_declared_keys(tmp_path, command):
    # the key table main accepts is the table the command reads
    run, keys = _COMMANDS[command]
    data = _ReadRecorder(_RECORDING_CONFIGS[command])
    run(data, tmp_path, False)
    assert data.read == set(keys)
