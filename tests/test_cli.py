import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import expstab
from expstab import cli
from expstab.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_MONITOR,
    EXIT_OK,
    main,
    parse_config_file,
)
from expstab.sim import load_csv


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    rc = main([
        "run", "--scenario", "scalar-A", "--horizon", "2.0", "--out", str(out),
        "--quiet",
    ])
    assert rc == EXIT_OK
    assert (out / "trajectory.csv").exists()
    assert (out / "diagnostics.csv").exists()
    report = (out / "report.txt").read_text()
    assert "status:     completed" in report
    assert "timing:" in report
    assert "decay:" in report and "(holds)" in report
    data = load_csv(out / "trajectory.csv")
    assert data["t"][-1] == 2.0
    diag = load_csv(out / "diagnostics.csv")
    assert list(diag) == ["t", "kappa"]
    assert np.array_equal(diag["t"], data["t"])
    # the scalar kernels replay no recorded program
    timing = next(line for line in report.splitlines() if line.startswith("timing:"))
    assert timing.endswith(" steps/s, 0 program calls of 0 ops")


def test_run_with_override_reproduces_baseline(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    rc1 = main([
        "run", "--scenario", "wing-rock-theorem1", "--set", "lambda=0",
        "--horizon", "0.2", "--out", str(out_a), "--quiet",
    ])
    rc2 = main([
        "run", "--scenario", "wing-rock-baseline",
        "--horizon", "0.2", "--out", str(out_b), "--quiet",
    ])
    assert rc1 == rc2 == EXIT_OK
    a = load_csv(out_a / "trajectory.csv")
    b = load_csv(out_b / "trajectory.csv")
    assert np.array_equal(a["x_1"], b["x_1"])
    assert np.array_equal(a["u"], b["u"])


def test_run_rejects_bad_gain(tmp_path):
    rc = main([
        "run", "--scenario", "wing-rock-theorem1", "--set", "k1=-1.0",
        "--out", str(tmp_path),
    ])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("key", ["x0", "theta_hat0"])
def test_component_overrides_count_from_one(tmp_path, key):
    scn = cli.build_named("wing-rock-theorem1")
    got = getattr(cli.apply_override(scn, f"{key}_2", 0.5), key)
    assert got.tolist() == [getattr(scn, key)[0], 0.5]
    with pytest.raises(cli.ConfigError, match="index out of range"):
        cli.apply_override(scn, f"{key}_0", 0.5)
    rc = main(["run", "--scenario", "wing-rock-theorem1", "--set", f"{key}_0=0.5",
               "--horizon", "0.01", "--out", str(tmp_path), "--quiet"])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("pair", ["quad_nodes=8.7", "record_every=2.9",
                                  "horizon_s=true", "x0_1=yes"])
def test_overrides_refuse_fractional_integers_and_booleans(tmp_path, capsys, pair):
    rc = main(["run", "--scenario", "wing-rock-theorem1", "--set", pair,
               "--horizon", "0.01", "--out", str(tmp_path), "--quiet"])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_run_exits_3_when_the_residual_gate_trips(tmp_path):
    rc = main(["run", "--scenario", "synthetic-n3-theorem1", "--set", "resid_tol=1e-30",
               "--horizon", "0.01", "--out", str(tmp_path), "--quiet"])
    assert rc == EXIT_DIVERGED
    report = (tmp_path / "report.txt").read_text()
    assert "status:     residual-exceeded" in report
    assert "cause:      factorization residual " in report
    assert "> tolerance 1e-30" in report


# which initial-state key each controller takes, and the column it starts
_INITIAL_STATE = {
    "wing-rock-theorem1": {"rho_hat0": "rho_hat"},
    "wing-rock-baseline": {"rho_hat0": "rho_hat"},
    "wing-rock-theorem2": {"xi0": "xi"},
    "scalar-A": {"a_hat0": "theta_hat_1"},
    "scalar-B": {"a_hat0": "theta_hat_1"},
    "scalar-C": {"xi0": "xi", "a_hat0": "theta_hat_1"},
}
_INITIAL_VALUE = {"rho_hat0": -0.7, "xi0": 0.25, "a_hat0": 0.125}


@pytest.mark.parametrize("key", sorted(_INITIAL_VALUE))
@pytest.mark.parametrize("name", sorted(_INITIAL_STATE))
def test_initial_state_overrides_set_the_state_or_exit_2(tmp_path, capsys, name, key):
    value = _INITIAL_VALUE[key]
    rc = main(["run", "--scenario", name, "--set", f"{key}={value}",
               "--horizon", "0.01", "--out", str(tmp_path), "--quiet"])
    column = _INITIAL_STATE[name].get(key)
    if column is None:  # the controller has no such state: never dropped silently
        assert rc == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        return
    assert rc == EXIT_OK
    assert load_csv(tmp_path / "trajectory.csv")[column][0] == value


def test_module_runs_the_command_line_tool():
    src = str(Path(expstab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "expstab", "verify-nussbaum"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "overall: pass" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["--scenario", "wing-rock-theorem1", "--set", "x0_1=nan"],
    ["--scenario", "wing-rock-theorem1", "--set", "lambda=nan"],
    ["--scenario", "wing-rock-theorem1", "--set", "delta_theta=nan"],
    ["--scenario", "wing-rock-theorem1", "--set", "theta_hat0_1=nan"],
    ["--scenario", "wing-rock-theorem1", "--set", "rho_hat0=nan"],
    ["--scenario", "wing-rock-theorem2", "--set", "xi0=inf"],
    ["--scenario", "scalar-C", "--set", "xi0=nan"],
    ["--scenario", "scalar-A", "--set", "a_hat0=-inf"],
    ["--scenario", "scalar-B", "--set", "delta_a=nan"],
    ["--scenario", "wing-rock-theorem1", "--horizon", "inf"],
    ["--scenario", "wing-rock-theorem1", "--set", "resid_tol=nan"],  # gate off
])
def test_run_rejects_non_finite_configuration(tmp_path, argv):
    if "--horizon" not in argv:
        argv = argv + ["--horizon", "0.01"]
    rc = main(["run", *argv, "--out", str(tmp_path), "--quiet"])
    assert rc == EXIT_CONFIG


def test_run_from_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# benchmark, shortened\n"
        "scenario = scalar-B\n"
        "horizon_s = 1.5\n"
        "step_s = 2e-3\n"
        "override.delta_a = 0.2\n"
    )
    out = tmp_path / "out"
    rc = main(["run", "--config", str(cfg), "--out", str(out), "--quiet"])
    assert rc == EXIT_OK
    data = load_csv(out / "trajectory.csv")
    assert abs(data["t"][-1] - 1.5) < 1e-12


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("scenario = scalar-A\nwhatever = 3\n")
    rc = main(["run", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == EXIT_CONFIG
    missing = tmp_path / "missing.cfg"
    missing.write_text("horizon_s = 1.0\n")
    rc2 = main(["run", "--config", str(missing), "--out", str(tmp_path / "o2")])
    assert rc2 == EXIT_CONFIG


def test_parse_config_values(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("a = 1\nb = 2.5e-3\nc = true\nd = hello  # trailing\n")
    parsed = parse_config_file(cfg)
    assert parsed == {"a": 1, "b": 2.5e-3, "c": True, "d": "hello"}


def test_compare_emits_table(tmp_path):
    out = tmp_path / "cmp"
    rc = main([
        "compare",
        "--scenario", "wing-rock-theorem1",
        "--scenario", "wing-rock-baseline",
        "--horizon", "0.5", "--out", str(out), "--quiet",
    ])
    assert rc == EXIT_OK
    table = (out / "comparison.csv").read_text().splitlines()
    assert table[0].startswith("name,controller,")
    assert len(table) == 3
    assert (out / "wing-rock-theorem1" / "trajectory.csv").exists()


def test_comparison_csv_holds_each_float_of_the_table(tmp_path, monkeypatch):
    tables = []
    compare_runs = cli.compare_runs

    def keep(*args, **kwargs):
        tables.append(compare_runs(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(cli, "compare_runs", keep)
    out = tmp_path / "cmp"
    rc = main(["compare", "--scenario", "scalar-A", "--scenario", "scalar-B",
               "--horizon", "0.3", "--out", str(out), "--quiet"])
    assert rc == EXIT_OK
    with open(out / "comparison.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    want = sorted(tables[0].rows, key=lambda r: r.name)
    assert [(r["name"], r["controller"]) for r in rows] == [(w.name, w.controller)
                                                            for w in want]
    for row, w in zip(rows, want):
        got = [float(row[k]) for k in ("settling_time_s", "peak_x1", "peak_u",
                                       "envelope_amplitude")]
        assert got == [w.settling_time, w.peak_x1, w.peak_u, w.envelope_amplitude]
    assert any(w.settling_time == float("inf") for w in want)  # unsettled at 0.3 s


def test_compare_in_worker_processes_writes_the_same_files(tmp_path):
    outs = []
    for workers in ("1", "2"):
        outs.append(tmp_path / f"workers{workers}")
        rc = main(["compare", "--scenario", "scalar-A", "--scenario", "scalar-B",
                   "--horizon", "0.3", "--workers", workers, "--out", str(outs[-1]),
                   "--quiet"])
        assert rc == EXIT_OK
    for name in ("comparison.csv", "comparison.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_compare_needs_two(tmp_path):
    rc = main(["compare", "--scenario", "scalar-A", "--out", str(tmp_path)])
    assert rc == EXIT_CONFIG


@pytest.mark.parametrize("bad", [["--set", "lambda=nan"], ["--horizon", "inf"]])
def test_compare_rejects_bad_configuration(tmp_path, bad):
    rc = main(["compare", "--scenario", "scalar-A", "--scenario", "scalar-B", *bad,
               "--out", str(tmp_path), "--quiet"])
    assert rc == EXIT_CONFIG


def test_verify_nussbaum_pass_and_exitcode(capsys):
    assert main(["verify-nussbaum", "--kind", "sin-exp-square"]) == EXIT_OK
    text = capsys.readouterr().out
    assert "overall: pass" in text
    # an absurd threshold cannot be met on the window: nonzero exit
    assert main([
        "verify-nussbaum", "--kind", "sin-exp-square", "--xi-max", "1.0",
        "--threshold", "1e30",
    ]) == EXIT_MONITOR


def test_acceptance_subcommand_selective(capsys, tmp_path):
    rc = main(["acceptance", "--only", "8", "--out", str(tmp_path / "acc")])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "[PASS] criterion 8" in out
    assert (tmp_path / "acc" / "acceptance.txt").exists()
