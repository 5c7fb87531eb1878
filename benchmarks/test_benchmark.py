"""Tests of the benchmark itself: every check rejects a corrupted output.

Run with ``python3 -m pytest benchmarks``.  The smoke test runs one round
of every workload, untraced and traced, in this process.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def wr_rows(tmp_path_factory):
    """Recorded rows of short wing-rock runs written by ``expstab run``."""
    from expstab.cli import main

    rows = {}
    for variant, scenario, lam in workloads.WR_VARIANTS:
        out = tmp_path_factory.mktemp(variant)
        assert main(["run", "--scenario", scenario, "--horizon", "0.02",
                     "--out", str(out), "--quiet"]) == 0
        rows[variant] = (workloads._read_csv(out / "trajectory.csv"), lam)
    return rows


def _wr_check(cols, variant, lam):
    return checks.check_wing_rock(cols, variant, workloads.WR_K, lam,
                                  workloads.WR_DELTA, workloads.WR_EPS)


@pytest.mark.parametrize("variant", ["theorem1", "theorem2", "baseline-lambda0"])
def test_wing_rock_rows_pass(wr_rows, variant):
    cols, lam = wr_rows[variant]
    assert _wr_check(cols, variant, lam) == []


@pytest.mark.parametrize("variant", ["theorem1", "theorem2", "baseline-lambda0"])
@pytest.mark.parametrize("column", ["kappa", "s_2", "u", "s_1", "mu"])
def test_wing_rock_rejects_perturbation(wr_rows, variant, column):
    cols, lam = wr_rows[variant]
    bad = copy.deepcopy(cols)
    bad[column][len(bad[column]) // 2] *= 1.0 + 1e-6
    assert _wr_check(bad, variant, lam)


def test_wing_rock_rejects_rho_above_bound(wr_rows):
    cols, lam = wr_rows["theorem1"]
    bad = copy.deepcopy(cols)
    bad["rho_hat"][-1] = -0.29
    # keep u consistent with the new rho so only the bound can fail
    c = checks.wing_rock_constants(workloads.WR_K, lam, workloads.WR_DELTA,
                                   workloads.WR_EPS)
    z2 = bad["x_2"][-1] + c * bad["x_1"][-1]
    bad["u"][-1] = -0.29 * (-bad["kappa"][-1] * z2)
    assert any("rho_hat" in p for p in _wr_check(bad, "theorem1", lam))


def test_monotone_rejects_decrease(wr_rows):
    cols, lam = wr_rows["theorem2"]
    bad = copy.deepcopy(cols)
    bad["xi"][-1] = bad["xi"][-2] - 1e-12
    assert checks.check_monotone(cols["xi"], "xi") == []
    assert checks.check_monotone(bad["xi"], "xi")


def test_decay_rejects_slower_rate():
    t = np.linspace(0.0, 6.0, 601)
    x = np.exp(-0.3 * t)[:, None]
    assert checks.check_decay(t, x, 0.2) == []
    assert checks.check_decay(t, x, 0.6)


def test_decay_rejects_short_or_nonfinite():
    assert checks.check_decay([0.0, 1.0], [[1.0], [0.5]], 0.1)
    t = np.linspace(0.0, 1.0, 5)
    assert checks.check_decay(t, [[1.0], [np.nan], [0.1], [0.1], [0.1]], 0.1)


@pytest.fixture(scope="module")
def syn_eval():
    from expstab.backstepping import BacksteppingEngine
    from expstab.scenarios import build_synthetic

    scn = build_synthetic("theorem1", seed=0, horizon=0.1)
    engine = BacksteppingEngine(scn.model, scn.gains)
    ev = engine.evaluate(0.05, (0.4, -0.3, 0.5), (0.1, 0.2), mu=1.02,
                         diagnostics=True)
    return engine, ev


def test_factorization_passes(syn_eval):
    assert checks.check_factorization(syn_eval[1]) == []


@pytest.mark.parametrize("field", ["W", "w", "psi", "psi_bar", "z"])
def test_factorization_rejects_perturbation(syn_eval, field):
    class Fake:
        pass

    ev = syn_eval[1]
    fake = Fake()
    for name in ("W", "w", "z", "psi", "psi_bar"):
        setattr(fake, name, copy.deepcopy(getattr(ev, name)))
    if field == "W":
        W = np.asarray(fake.W[2], dtype=float)
        W[1, 0] += 1e-6
        fake.W = fake.W[:2] + (W,)
    elif field == "w":
        fake.w = fake.w[:2] + ((fake.w[2][0] + 1e-6, fake.w[2][1]),)
    elif field == "psi":
        fake.psi += 1e-6
    elif field == "psi_bar":
        fake.psi_bar = (fake.psi_bar[0] + 1e-6,) + tuple(fake.psi_bar[1:])
    else:
        fake.z = (fake.z[0] + 1e-6,) + tuple(fake.z[1:])
    assert checks.check_factorization(fake)


@pytest.mark.parametrize("layer", [1, 2])
def test_gradient_check(syn_eval, layer):
    engine = syn_eval[0]
    x, th, mu = [0.4, -0.3, 0.5][:layer], [0.1, 0.2], 1.02
    _, g = engine.virtual_law_gradient(layer, x, th, mu)
    grad = list(g.x) + list(g.th) + [g.mu]

    def value(p):
        return engine.virtual_law(layer, p[:layer], p[layer:layer + 2], p[layer + 2])

    point = x + th + [mu]
    assert checks.check_gradient(value, point, grad) == []
    bad = list(grad)
    bad[0] *= 1.0 + 1e-3
    assert checks.check_gradient(value, point, bad)


def test_energy_a():
    from expstab.scenarios import build_scalar
    from expstab.sim import simulate

    tr = simulate(build_scalar("scalar-A", a_nominal=1.2, x0=-1.5, horizon=2.0,
                               step=1e-3, record_every=10))
    s, a_hat = tr.s[:, 0], tr.theta_hat[:, 0]
    assert checks.check_energy_a(s, a_hat, 1.2, 1.0) == []
    bad = a_hat.copy()
    bad[len(bad) // 2] -= 1e-3  # a_hat pulled away from a = 1.2
    assert checks.check_energy_a(s, bad, 1.2, 1.0)


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert per_layer == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke(name):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = run.run_workload(name, 3, 0.0, trace=False, setup_reps=1)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    res = run.run_workload(name, 3, 0.0, trace=True, sweep_snapshots=1, sweep_reps=1)
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "wing-rock",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
