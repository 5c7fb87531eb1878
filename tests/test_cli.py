import numpy as np
import pytest

from expstab.cli import EXIT_CONFIG, EXIT_MONITOR, EXIT_OK, main, parse_config_file
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


def test_compare_needs_two(tmp_path):
    rc = main(["compare", "--scenario", "scalar-A", "--out", str(tmp_path)])
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
