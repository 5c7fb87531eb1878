"""Golden reference of the acceptance runs, and the script that regenerates it.

For each of the six acceptance runs the reference holds the status,
failure time, step count, program calls and length, the monitors and
every recorded column at 50 fixed rows (evenly spaced over the record).
For each criterion-5 draw it holds the status and the terminal state.
``tests/test_golden.py`` compares the acceptance cache against it.

Regenerate it (a few minutes on two cores) with::

    PYTHONPATH=src python tests/golden.py
"""

import json
from pathlib import Path

import numpy as np

from expstab.acceptance import CRITERIA, AcceptanceCache

REFERENCE = Path(__file__).with_name("golden_acceptance.json")
ROWS = 50

RUNS = {
    "wr-t1": AcceptanceCache.wing_rock_t1,
    "wr-t2": AcceptanceCache.wing_rock_t2,
    "wr-base": AcceptanceCache.wing_rock_baseline,
    "wr-t1-half": AcceptanceCache.wing_rock_t1_half_step,
    "syn-t1": AcceptanceCache.synthetic_t1,
    "syn-t2": AcceptanceCache.synthetic_t2,
}


def _rows(n_rows: int) -> list:
    """The sampled row indices of an ``n_rows``-row record."""
    return sorted({int(i) for i in np.linspace(0, n_rows - 1, ROWS).round()}) if n_rows else []


def _floats(values) -> list:
    return [float(v) for v in values]


def snapshot(cache: AcceptanceCache) -> dict:
    """The reference facts of every acceptance run and draw in ``cache``.

    Runs the six acceptance runs and criterion 5 if the cache lacks them.
    """
    runs = {}
    for key, get in RUNS.items():
        tr = get(cache)
        picked = _rows(len(tr.t))
        runs[key] = {
            "status": tr.status,
            "failure_time": tr.failure_time,
            "program_calls": tr.meta["program_calls"],
            "program_ops": tr.meta["program_ops"],
            "monitors": tr.monitors,
            "n_rows": len(tr.t),
            "rows": picked,
            "columns": {
                name: _floats(np.asarray(col)[picked])
                for name, col in zip(tr.column_names(), tr.column_data())
            },
        }
    if not cache.draws:
        CRITERIA[5](cache)
    draws = {
        name: {"status": status, "terminal": _floats(state)}
        for name, (status, state) in cache.draws.items()
    }
    return {"runs": runs, "draws": draws}


def main() -> None:
    ref = snapshot(AcceptanceCache())
    # repr floats round-trip exactly; NaN and inf are written as bare tokens
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    size = REFERENCE.stat().st_size
    print(f"wrote {REFERENCE} ({size / 1024:.0f} KiB, "
          f"{len(ref['runs'])} runs, {len(ref['draws'])} draws)")


if __name__ == "__main__":
    main()
