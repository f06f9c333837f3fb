"""The JSON form of Kraus channels read by the ``channel`` subcommand."""

import json

import numpy as np

from nibp_lab.channels import amplitude_damping, validate_kraus
from nibp_lab.cli import kraus_from_json


def test_kraus_round_trip():
    # explicit form: row-major [re, im] pairs per Kraus operator
    ch = amplitude_damping(0.37)
    data = json.loads(json.dumps({
        "n": 1,
        "kraus": [np.stack([k.real, k.imag], axis=-1).tolist() for k in ch.kraus_ops],
    }))
    back = kraus_from_json(data)
    assert back.n == 1
    for a, b in zip(back.kraus_ops, ch.kraus_ops):
        np.testing.assert_allclose(a, b, atol=1e-15)
    assert validate_kraus(back).trace_preserving
    # without "n" the register size follows from the matrix shape
    del data["n"]
    assert kraus_from_json(data).n == 1


def test_kraus_from_name():
    ch = kraus_from_json({"name": "depolarizing", "p": 0.3})
    assert validate_kraus(ch).unital
