"""The acceptance runs and criterion-5 draws against the committed golden reference.

Recorded values gate at ``TOL`` of each reference column's largest
magnitude (of the terminal state's, for a draw), a float monitor at
``TOL`` of its own; NaN matches NaN.  Counts, statuses and failure
reasons must match exactly.  Whether the sampled
values are also bit-identical is printed, not gated.  Regenerate the
reference with ``PYTHONPATH=src python tests/golden.py``.
"""

import json

import numpy as np
import pytest
from golden import REFERENCE, RUNS, snapshot

TOL = 1e-12


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.fixture(scope="module")
def current(cache):
    return snapshot(cache)


def _same(got, want) -> np.ndarray:
    """Equal values, NaN equal to NaN."""
    return (got == want) | (np.isnan(got) & np.isnan(want))


def _close(got, want, scale) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return False
    with np.errstate(invalid="ignore"):  # inf - inf
        near = np.abs(got - want) <= TOL * scale
    return bool(np.all(_same(got, want) | near))


def _scale(values) -> float:
    finite = np.abs(np.asarray(values, dtype=float))
    finite = finite[np.isfinite(finite)]
    return float(finite.max()) if finite.size else 0.0


def _moved(got, want) -> int:
    """How many values are not bit-identical."""
    return int(np.count_nonzero(~_same(np.asarray(got), np.asarray(want))))


@pytest.mark.parametrize("key", list(RUNS))
def test_acceptance_run_matches_the_reference(key, reference, current):
    want = reference["runs"][key]
    got = current["runs"][key]
    for field in ("status", "failure_time", "program_calls", "program_ops",
                  "n_rows", "rows"):
        assert got[field] == want[field], field
    assert sorted(got["monitors"]) == sorted(want["monitors"])
    for name, value in want["monitors"].items():
        if isinstance(value, float):
            assert _close(got["monitors"][name], value, abs(value)), name
        else:
            assert got["monitors"][name] == value, name
    assert list(got["columns"]) == list(want["columns"])
    moved = {}
    for name, values in want["columns"].items():
        assert _close(got["columns"][name], values, _scale(values)), name
        count = _moved(got["columns"][name], values)
        if count:
            moved[name] = count
    print(f"golden {key}: " + (
        "bit-identical" if not moved
        else "within tolerance; values that moved: " + ", ".join(
            f"{name} {count}/{len(want['rows'])}" for name, count in moved.items())
    ))


def test_scalar_draws_match_the_reference(reference, current):
    want = reference["draws"]
    got = current["draws"]
    assert list(got) == list(want)
    moved = 0
    for name, draw in want.items():
        assert got[name]["status"] == draw["status"], name
        assert _close(got[name]["terminal"], draw["terminal"], _scale(draw["terminal"])), name
        moved += _moved(got[name]["terminal"], draw["terminal"]) > 0
    print(f"golden draws: {len(want)} draws, {moved} not bit-identical")
