"""Batch command-line tool: run scenarios, compare controllers, verify gains.

Subcommands
-----------
run
    Simulate one scenario (by registry name or config file), write
    ``trajectory.csv``, ``diagnostics.csv`` and ``report.txt`` into the
    output directory.  Exit status: 0 on success, 2 for configuration
    errors, 3 for diverged/overflowed runs, 4 when an invariant monitor
    failed.
compare
    Run several scenarios against each other (optionally in parallel
    worker processes) and emit a comparison table.
verify-nussbaum
    Run the finite-range growth checks for a gain function and print the
    report; nonzero exit when a condition fails.
acceptance
    Run the acceptance suite (one pass/fail line per criterion).  Runs
    sequentially so the wall-time criteria measure a single core.

Config files are plain ``key = value`` lines with ``#`` comments; keys
carry their unit where applicable (``horizon_s``, ``step_s``) and
controller parameters are overridden with ``override.<name>``.  The same
names work with ``--set name=value`` on the command line, e.g.
``--set lambda=0`` or ``--set k1=2.0``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .analysis import compare_runs, detect_limit, energy_descent_ok, fit_envelope, settling_time
from .backstepping import GainConfig
from .nussbaum import NussbaumSpec, verify_enhanced
from .scalar import ScalarGains
from .scenarios import build_named, scenario_names
from .sim import AUX_STATE, ScenarioError, Trajectory, export_csv, export_csvs, simulate

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_MONITOR = 4


class ConfigError(ValueError):
    pass


def _parse_value(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "yes"):
        return True
    if low in ("false", "no"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def parse_config_file(path) -> dict:
    """Read a ``key = value`` config file into a flat dict."""
    out = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = _parse_value(val)
    return out


def _integral(value) -> int:
    """``value`` as an int; a fraction raises instead of truncating."""
    if float(value) != int(value):
        raise ValueError("expected an integer")
    return int(value)


def apply_override(scenario, key: str, value):
    """Return a scenario with one named parameter replaced.

    Recognized keys: ``lambda``, ``k``/``k1..k9``, ``delta_theta``,
    ``delta_a``, ``eps_psi``, ``gamma_rho``, ``gamma_a``, ``quad_nodes``,
    ``resid_tol``, ``rho_hat0``, ``xi0``, ``a_hat0``, ``horizon_s``,
    ``step_s``, ``record_every``, ``x0_<i>``, ``theta_hat0_<i>``.  Every
    key takes a number, never a boolean; ``quad_nodes`` and
    ``record_every`` take only integral ones.

    The initial controller state: ``rho_hat0`` sets ``aux0`` of the
    known-direction controllers (``theorem1``, ``baseline-lambda0``),
    ``xi0`` that of the Nussbaum ones (``theorem2``, ``scalar-C``), and
    ``a_hat0`` is the scalar designs' name for ``theta_hat0_1``.  Any
    other controller refuses the key with :class:`ConfigError`.
    """
    g = scenario.gains
    engine = isinstance(g, GainConfig)
    aux_name = AUX_STATE.get(scenario.controller)
    try:
        if isinstance(value, bool):  # float(True) would read it as 1.0
            raise ValueError("expected a number")
        if key == "lambda":
            gains = dataclasses.replace(g, lam=float(value))
            return dataclasses.replace(scenario, gains=gains)
        if key == "k" and not engine:
            return dataclasses.replace(
                scenario, gains=dataclasses.replace(g, k=float(value))
            )
        if key.startswith("k") and key[1:].isdigit() and engine:
            i = int(key[1:]) - 1
            ks = list(g.k)
            if not 0 <= i < len(ks):
                raise ConfigError(f"gain index out of range in {key!r}")
            ks[i] = float(value)
            return dataclasses.replace(scenario, gains=dataclasses.replace(g, k=tuple(ks)))
        if key in ("delta_theta", "eps_psi", "gamma_rho", "resid_tol") and engine:
            return dataclasses.replace(
                scenario, gains=dataclasses.replace(g, **{key: float(value)})
            )
        if key == "quad_nodes" and engine:
            return dataclasses.replace(
                scenario, gains=dataclasses.replace(g, quad_nodes=_integral(value))
            )
        if key in ("delta_a", "gamma_a") and not engine:
            return dataclasses.replace(
                scenario, gains=dataclasses.replace(g, **{key: float(value)})
            )
        if key in ("rho_hat0", "xi0"):
            if key != f"{aux_name}0":
                raise ConfigError(f"{scenario.controller} has no {key[:-1]} state")
            return dataclasses.replace(scenario, aux0=float(value))
        if key == "a_hat0" and not engine:
            key = "theta_hat0_1"
        if key == "horizon_s":
            return dataclasses.replace(scenario, horizon=float(value))
        if key == "step_s":
            return dataclasses.replace(scenario, step=float(value))
        if key == "record_every":
            return dataclasses.replace(scenario, record_every=_integral(value))
        for prefix, field in (("x0_", "x0"), ("theta_hat0_", "theta_hat0")):
            if key.startswith(prefix):
                i = int(key[len(prefix):]) - 1
                if i < 0:  # a negative index would silently write from the end
                    raise ConfigError(f"component index out of range in {key!r}")
                vec = np.array(getattr(scenario, field), dtype=float)
                vec[i] = float(value)
                return dataclasses.replace(scenario, **{field: vec})
    except (ValueError, IndexError, OverflowError) as exc:
        raise ConfigError(f"bad override {key}={value!r}: {exc}") from exc
    raise ConfigError(f"unknown override key {key!r}")


def _build_scenario(name, config, overrides, horizon, step) -> object:
    """The scenario ``name`` (or the one a config file names), overridden.

    Overrides apply in order: the config file's, then ``--set`` pairs,
    then ``--horizon`` and ``--step``.
    """
    if config:
        cfg = parse_config_file(config)
        name = cfg.pop("scenario", None)
        if name is None:
            raise ConfigError(f"{config}: missing 'scenario' key")
        scn = build_named(str(name))
        for key, value in cfg.items():
            if key.startswith("override."):
                scn = apply_override(scn, key[len("override."):], value)
            elif key in ("horizon_s", "step_s", "record_every"):
                scn = apply_override(scn, key, value)
            elif key == "out":
                continue
            else:
                raise ConfigError(f"{config}: unknown key {key!r}")
    elif name:
        scn = build_named(name)
    else:
        raise ConfigError("provide --scenario NAME or --config FILE")
    for key, value in overrides:
        scn = apply_override(scn, key, value)
    if horizon is not None:
        scn = apply_override(scn, "horizon_s", horizon)
    if step is not None:
        scn = apply_override(scn, "step_s", step)
    return scn


def _parse_sets(pairs):
    out = []
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, val = pair.split("=", 1)
        out.append((key.strip(), _parse_value(val)))
    return out


def _monitor_failures(traj: Trajectory) -> list:
    fails = []
    tol = traj.monitors.get("residual_tol")
    if tol is not None and traj.monitors["max_residual"] > tol:
        fails.append(
            f"factorization residual {traj.monitors['max_residual']:.2e} > {tol:g}"
        )
    inc = traj.monitors.get("xi_min_increment")
    if inc is not None and inc < 0.0:
        fails.append(f"Nussbaum argument decreased by {-inc:.2e}")
    return fails


def _write_report(traj: Trajectory, out_dir: Path, quiet: bool) -> list:
    lines = [
        f"scenario:   {traj.scenario_name}",
        f"controller: {traj.controller}",
        f"status:     {traj.status}",
    ]
    if traj.monitors.get("failure_reason"):
        lines.append(f"cause:      {traj.monitors['failure_reason']}")
    lines += [
        f"steps:      {traj.monitors['steps']} (recorded {len(traj.t)})",
        f"horizon:    {traj.meta['horizon_s']} s at step {traj.meta['step_s']} s",
        f"timing:     {traj.meta['wall_s']:.4g} s wall, "
        f"{traj.meta['steps_per_s']:.6g} steps/s, {traj.meta['program_calls']} program "
        f"calls of {traj.meta['program_ops']} ops",
    ]
    fails = _monitor_failures(traj)
    if traj.completed:
        lam = traj.meta["lam"]
        fit = fit_envelope(traj, rate=lam)
        lines.append(
            f"envelope:   |x(t)| <= {fit.amplitude:.6g} * exp(-{lam:g} t)"
            f" (tight at t={fit.attained_t:.4g})"
        )
        lines.append(
            f"decay:      sup |x| exp({lam:g} t) {fit.first_third:.6g} on the first "
            f"third, {fit.last_third:.6g} on the last ({'holds' if fit.holds else 'FAILS'})"
        )
        lines.append(f"settling:   |x1| < 0.05 after {settling_time(traj, 0.05):.4g} s")
        lines.append(f"peak input: {float(np.max(np.abs(traj.u))):.6g}")
        if traj.theta_hat.shape[0] > 2:
            tail = detect_limit(
                traj.theta_hat[:, 0], traj.t,
                tail_start=2.0 * traj.t[-1] / 3.0,
                epsilon=1e-3 * (1.0 + abs(traj.theta_hat[-1, 0])),
            )
            lines.append(
                f"estimate:   tail variation {tail.tail_variation:.3e}"
                f" ({'settled' if tail.converged else 'still moving'})"
            )
        if "V" in traj.diag:
            ok, worst = energy_descent_ok(traj)
            lines.append(
                f"energy:     {'non-increasing' if ok else f'INCREASING (excess {worst:.2e})'}"
            )
    if traj.monitors.get("max_residual") is not None:
        lines.append(f"residuals:  max {traj.monitors['max_residual']:.3e}")
    lines.append("monitors:   " + ("all passed" if not fails else "; ".join(fails)))
    text = "\n".join(lines) + "\n"
    (out_dir / "report.txt").write_text(text)
    if not quiet:
        print(text, end="")
    return fails


def cmd_run(args) -> int:
    try:
        scn = _build_scenario(args.scenario, args.config, _parse_sets(args.set),
                              args.horizon, args.step)
        scn.validate()
    except (ConfigError, ScenarioError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj = simulate(scn)
    export_csvs(traj, [(out_dir / "trajectory.csv", None),
                       (out_dir / "diagnostics.csv", ["t"] + sorted(traj.diag))])
    fails = _write_report(traj, out_dir, args.quiet)
    if not traj.completed:
        print(
            f"run {traj.status} at t={traj.failure_time}: "
            f"{traj.monitors['failure_reason']}",
            file=sys.stderr,
        )
        return EXIT_DIVERGED
    if fails:
        return EXIT_MONITOR
    return EXIT_OK


def _compare_worker(payload):
    name, sets, horizon, step = payload
    return simulate(_build_scenario(name, None, sets, horizon, step))


def cmd_compare(args) -> int:
    try:
        sets = _parse_sets(args.set)
        names = args.scenario
        if len(names) < 2:
            raise ConfigError("compare needs at least two --scenario names")
        payloads = [(n, sets, args.horizon, args.step) for n in names]
        for payload in payloads:  # the workers rebuild them: models do not pickle
            _build_scenario(payload[0], None, *payload[1:]).validate()
    except (ConfigError, ScenarioError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            trajectories = list(pool.map(_compare_worker, payloads))
    else:
        trajectories = [_compare_worker(p) for p in payloads]

    for traj in trajectories:
        sub = out_dir / traj.scenario_name
        sub.mkdir(exist_ok=True)
        export_csv(traj, sub / "trajectory.csv")
    bad = [t for t in trajectories if not t.completed]
    if bad:
        for t in bad:
            print(f"{t.scenario_name}: {t.status} at t={t.failure_time}: "
                  f"{t.monitors['failure_reason']}", file=sys.stderr)
        return EXIT_DIVERGED
    table = compare_runs(trajectories, threshold=args.threshold, rate=args.rate)
    text = str(table) + "\n"
    (out_dir / "comparison.txt").write_text(text)
    with open(out_dir / "comparison.csv", "w", newline="") as fh:
        writer = csv.writer(fh)  # writes a float as its repr, as export_csv does
        writer.writerow(["name", "controller", "settling_time_s", "peak_x1", "peak_u",
                         "envelope_amplitude"])
        writer.writerows(
            [r.name, r.controller, r.settling_time, r.peak_x1, r.peak_u,
             r.envelope_amplitude]
            for r in sorted(table.rows, key=lambda r: r.name)
        )
    if not args.quiet:
        print(text, end="")
    return EXIT_OK


def cmd_verify_nussbaum(args) -> int:
    try:
        spec = NussbaumSpec(kind=args.kind, xi_max=args.xi_max)
        report = verify_enhanced(spec, threshold=args.threshold, base_step=args.grid_step)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(report)
    return EXIT_OK if report.passed else EXIT_MONITOR


def cmd_acceptance(args) -> int:
    from .acceptance import RUNS, AcceptanceCache, run_all

    cache = AcceptanceCache()
    only = set(args.only) if args.only else None
    results = run_all(cache, only=only)
    failed = [r for r in results if not r.passed]
    print(f"\n{len(results) - len(failed)}/{len(results)} criteria passed")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "acceptance.txt").write_text(
            "\n".join(r.line() for r in results) + "\n"
        )
        from .sim import export_npz

        for key in RUNS:
            if key in cache.wall:  # simulated by the criteria that ran
                export_npz(cache.run(key), out_dir / f"{key}.npz")
    return EXIT_OK if not failed else EXIT_MONITOR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expstab",
        description="Adaptive exponential stabilization toolkit: run and "
        "verify the controllers on canned scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one scenario and write artifacts")
    run_p.add_argument("--scenario", choices=scenario_names(), help="registry scenario")
    run_p.add_argument("--config", help="config file (key = value lines)")
    run_p.add_argument("--out", default="out", help="output directory")
    run_p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a parameter (repeatable)")
    run_p.add_argument("--step", type=float, help="integration step [s]")
    run_p.add_argument("--horizon", type=float, help="horizon [s]")
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(fn=cmd_run)

    cmp_p = sub.add_parser("compare", help="run scenarios side by side")
    cmp_p.add_argument("--scenario", action="append", default=[],
                       choices=scenario_names(), help="repeatable")
    cmp_p.add_argument("--out", default="out-compare")
    cmp_p.add_argument("--set", action="append", metavar="KEY=VALUE")
    cmp_p.add_argument("--step", type=float)
    cmp_p.add_argument("--horizon", type=float)
    cmp_p.add_argument("--threshold", type=float, default=0.05,
                       help="settling threshold on |x1|")
    cmp_p.add_argument("--rate", type=float, default=0.6, help="envelope rate")
    cmp_p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes")
    cmp_p.add_argument("--quiet", action="store_true")
    cmp_p.set_defaults(fn=cmd_compare)

    ver_p = sub.add_parser("verify-nussbaum", help="finite-range growth checks")
    ver_p.add_argument("--kind", default="sin-exp-square",
                       choices=("sin-exp-square", "cos-exp-square"))
    ver_p.add_argument("--xi-max", type=float, default=6.0)
    ver_p.add_argument("--threshold", type=float, default=10.0)
    ver_p.add_argument("--grid-step", type=float, default=0.01)
    ver_p.set_defaults(fn=cmd_verify_nussbaum)

    acc_p = sub.add_parser("acceptance", help="run the acceptance suite")
    # acceptance.CRITERIA's numbers, written out so that building the
    # parser does not import the suite
    acc_p.add_argument("--only", action="append", type=int, choices=range(1, 10),
                       metavar="{1..9}", help="criterion number (repeatable)")
    acc_p.add_argument("--out", help="write acceptance report and cached runs here")
    acc_p.set_defaults(fn=cmd_acceptance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
