"""The comparisons of the determinism table (tools/invariants.py), on files
written here: no row's command runs."""
import filecmp
import importlib.util
import os
from pathlib import Path

import numpy as np

from incrlin import io
from incrlin.datamodel import WeightMatrix

_spec = importlib.util.spec_from_file_location(
    "invariants", Path(__file__).resolve().parents[1] / "tools" / "invariants.py")
invariants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(invariants)


def _pair(tmp_path, name):
    """One output's path in each variant's directory, as the table lays them out."""
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    return tmp_path / "a" / name, tmp_path / "b" / name


def test_one_flipped_byte_differs_at_equal_size_and_mtime(tmp_path):
    a, b = _pair(tmp_path, "r.json")
    a.write_bytes(b'{"acc": 61.25}\n')
    b.write_bytes(b'{"acc": 61.25}\n')
    assert invariants.same_bytes(a, b) is None
    b.write_bytes(b'{"acc": 61.24}\n')
    os.utime(b, ns=(a.stat().st_atime_ns, a.stat().st_mtime_ns))
    assert filecmp.cmp(a, b)  # the shallow mode compares only stat signatures
    assert invariants.same_bytes(a, b) == "r.json differs"


def test_same_bytes_in_a_file_too_small(tmp_path):
    a, b = _pair(tmp_path, "features.csv")
    a.write_bytes(b"x" * 64)
    b.write_bytes(b"x" * 64)
    assert invariants.same_bytes(a, b, 63) is None
    assert invariants.same_bytes(a, b, 64) == "features.csv is not past 64 B"


def test_weight_tolerance_is_1e_12_of_max_w(tmp_path):
    w = np.array([[4.0, -1.0], [0.5, 0.0]])  # max|w| = 4, and the drift is exact
    a, b = _pair(tmp_path, "w.csv")
    io.save_weights_csv(WeightMatrix([0, 1], w), a)
    for drift, accepted in ((1e-12, True), (2e-12, False)):
        moved = w.copy()
        moved[1, 1] = drift * 4.0
        io.save_weights_csv(WeightMatrix([0, 1], moved), b)
        fault = invariants.close_weights(a, b)
        assert fault == (None if accepted else "w.csv drifts 2e-12 of max|w|")
