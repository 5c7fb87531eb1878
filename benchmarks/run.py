"""expstab benchmark: closed-loop throughput on three workloads.

Run from the root of the repository:

    python3 benchmarks/run.py --workload wing-rock --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload synthetic-n3 --seed 1 --seconds 20 --trace 1
    python3 benchmarks/run.py --smoke

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a
separate traced run for the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Load is a closed loop from this one process: each
operation starts when the previous one has finished.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

SETUP_REPS = 7
RUN_SECONDS = 25

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "steps_per_s": "steps/s",
    "peak_rss_mib": "MiB",
}


def _fail(msg: str) -> None:
    print(f"benchmark: {msg}", file=sys.stderr)
    sys.exit(2)


def measure_setup(workload: str, seed: int, reps: int) -> float:
    """Median wall time of fresh processes that import, build and construct."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-child",
           "--workload", workload, "--seed", str(seed)]
    walls = []
    for i in range(reps + 1):  # the first one warms the file cache
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        dt = time.perf_counter() - t0
        if proc.returncode != 0:
            _fail(f"set-up process failed:\n{proc.stderr.decode(errors='replace')}")
        if i:
            walls.append(dt)
    return statistics.median(walls)


def run_rounds(wl, seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed (at least one).

    Only the latest round keeps its trajectories, so peak memory does not
    grow with the number of rounds a faster program fits in.
    """
    rounds = []
    t0 = time.perf_counter()
    while True:
        if rounds:
            for op in rounds[-1]:
                op.traj = None
        rounds.append(wl.round())
        if time.perf_counter() - t0 >= seconds:
            return rounds


def end_to_end(rounds, setup_s: float) -> dict:
    run_s = statistics.median(sum(op.wall_s for op in r) for r in rounds)
    rate = statistics.median(
        sum(op.steps for op in r) / sum(op.sim_s for op in r) for r in rounds
    )
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {"setup_s": setup_s, "run_s": run_s, "steps_per_s": rate,
              "peak_rss_mib": rss}
    return {k: (v, END_TO_END[k]) for k, v in values.items()}


def outcome(rounds, metrics: dict) -> dict:
    ops = [op for r in rounds for op in r]
    failed = [op for op in ops if op.failed]
    problems = [f"{op.name}: {p}" for op in ops if not op.failed for p in op.problems]
    for p in problems[:20]:
        print(f"CHECK FAILED {p}", file=sys.stderr)
    for op in failed[:20]:
        print(f"OPERATION FAILED {op.name}: {'; '.join(op.problems)}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 setup_reps: int = SETUP_REPS, sweep_snapshots: int = 3,
                 sweep_reps: int = 2) -> dict:
    from workloads import WORKLOADS

    out_dir = OUT / name
    out_dir.mkdir(parents=True, exist_ok=True)
    if not trace:
        setup_s = measure_setup(name, seed, setup_reps)
        wl = WORKLOADS[name](seed, out_dir)
        try:
            rounds = run_rounds(wl, seconds)
        finally:
            wl.close()
        return outcome(rounds, end_to_end(rounds, setup_s))

    import layers
    import sweep
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        wl = WORKLOADS[name](seed, out_dir, tracer)
        try:
            rounds = run_rounds(wl, seconds)
        finally:
            wl.close()
        metrics = layers.per_layer(tracer, rounds, seed, out_dir)
    finally:
        tracer.uninstall()
    metrics.update(sweep.run_sweep(seed, sweep_snapshots, sweep_reps))
    result = outcome(rounds, metrics)
    (out_dir / "trace.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_result(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round of every workload, untraced and traced")
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_child:
        WORKLOADS[args.workload].setup(args.seed)
        return 0
    if args.smoke:
        ok = True
        for name in sorted(WORKLOADS):
            for trace in (False, True):
                res = run_workload(name, args.seed, 0.0, trace, setup_reps=1,
                                   sweep_snapshots=1, sweep_reps=1)
                print(f"== {name} --trace {int(trace)}")
                print_result(res)
                ok = ok and res["correct"] and not res["failed"]
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_result(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    if not (SRC / "expstab" / "__init__.py").is_file():
        _fail(f"no expstab sources under {SRC}; run from a checkout of the repository")
    sys.exit(main())
