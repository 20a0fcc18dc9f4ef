"""Run one fieldfit benchmark workload and print its metrics.

    python3 bench/run.py --workload box-adaptive --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all

A run builds its inputs from ``--seed`` and repeats whole rounds of the
workload's operations until the rounds have taken ``--seconds``.  Set-up
runs in three windows spread over the run (``setup_s`` is the median of all
set-ups).  After each round the outputs are checked outside the clock.
Timings are medians over the rounds.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced and traced rounds
alternate, and the JSON carries the per-layer metrics read from the spans
of the traced rounds, plus the tracing overhead.  Results, the trace and
the environment are also written to ``.bench_out/`` at the root of the
checkout.  ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NAMES = ("box-adaptive", "step1d", "mesh-transfer")
# step1d gets one BLAS thread per process: with OpenBLAS's default of one
# thread per core, its evaluation and 1D Darcy solves ran 1.8 to 2.5 times
# slower and split into fast and slow runs.  The other workloads keep the
# default, so that the oversubscription of the pool workers stays visible.
ONE_BLAS_THREAD = ("step1d",)
# set-up runs in this many windows spread over a run; a set-up of a few
# milliseconds is repeated in each window until SETUP_MIN_S have passed
SETUP_WINDOWS = 3
SETUP_MIN_S = 0.25
SETUP_MAX_REPEATS = 1000

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "fit_s": ("s", "lower"),
    "eval_points_per_s": ("points/s", "higher"),
    "darcy_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "field_rel_l2": ("1", "lower"),
    "pressure_rel_l2": ("1", "lower"),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def peak_rss_mb():
    """Peak resident set of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def set_up(workload, tracer):
    """One set-up window: set up once, or repeatedly until SETUP_MIN_S passed."""
    import tracing

    seconds, parts = [], []
    while not seconds or (sum(seconds) < SETUP_MIN_S and len(seconds) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.phase = "setup"
            with tracing.installed(tracer):
                ctx, part = workload.setup()
        else:
            ctx, part = workload.setup()
        seconds.append(time.perf_counter() - t0)
        parts.append(part)
    return seconds, parts, ctx


def run_round(workload, ctx, inputs, tracer, traced):
    """One round of the timed part, then its checks outside the clock."""
    import tracing
    from workloads import Round

    rnd = Round(traced)
    t0 = time.perf_counter()
    try:
        if traced:
            tracer.phase = "run"
            with tracing.installed(tracer):
                out = workload.timed(ctx, inputs, rnd)
        else:
            out = workload.timed(ctx, inputs, rnd)
        rnd.wall = time.perf_counter() - t0
        rnd.completed = True
    except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
        rnd.wall = time.perf_counter() - t0
        rnd.problems.append(f"round aborted: {type(exc).__name__}: {exc}")
        return rnd
    workload.verify(ctx, inputs, out, rnd)
    return rnd


def measure(name, seed, seconds, trace):
    """Set-up windows between whole rounds until the rounds took ``seconds``.

    The SETUP_WINDOWS set-up windows are spread over the run (before the
    first round, then after each round), so that the set-up and the rounds
    sample the same stretch of time.  With a tracer, untraced and traced
    rounds alternate.
    """
    import numpy as np

    import environment
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    workload = workloads.make(name, OUT)
    inputs = workload.inputs(np.random.default_rng(seed))
    spool = Path(tempfile.mkdtemp(prefix="spool-", dir=OUT)) if trace else None
    tracer = tracing.Tracer(spool) if trace else None
    setups, setup_parts, problems, rounds, windows = [], [], [], [], 0
    def enough():
        return sum(r.wall for r in rounds) >= seconds and (tracer is None or len(rounds) >= 2)

    try:
        while windows < SETUP_WINDOWS or not enough():
            if windows < SETUP_WINDOWS:
                more, parts, ctx = set_up(workload, tracer)
                setups += more
                setup_parts += parts
                problems += workload.verify_setup(ctx)
                windows += 1
            if not enough():
                traced = tracer is not None and len(rounds) % 2 == 1
                rounds.append(run_round(workload, ctx, inputs, tracer, traced))
    finally:
        if spool is not None:
            shutil.rmtree(spool, ignore_errors=True)

    planned = len(workload.ops)
    attempted = planned * len(rounds)
    failures = []
    for k, rnd in enumerate(rounds):
        problems += [f"round {k}: {p}" for p in rnd.problems]
        failures += [f"round {k}: {op}: {why}" for op, why in rnd.ops.items() if why]
        failures += [f"round {k}: {op}: not run" for op in workload.ops if op not in rnd.ops]
        unknown = set(rnd.ops) - set(workload.ops)
        if unknown:
            raise RuntimeError(f"operations {sorted(unknown)} are not in the plan of {name}")
    done = [r for r in rounds if r.completed]

    def med(values):
        values = list(values)
        return statistics.median(values) if values else float("nan")

    plain = [r for r in done if not r.traced]
    if trace:
        metrics = tracing.layer_metrics(tracer.spans, sum(r.traced for r in rounds))
        metrics["trace.overhead_s"] = (
            med(r.wall for r in done if r.traced) - med(r.wall for r in plain)
        )
        units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
    else:
        fit = [r.seconds["fit"] for r in plain if "fit" in r.seconds]
        metrics = {
            "setup_s": med(setups),
            "run_s": med(r.wall for r in plain),
            "fit_s": med(fit) if fit else med(p["fit"] for p in setup_parts),
            "eval_points_per_s": med(r.values["points"] / r.seconds["eval"] for r in plain),
            "darcy_s": med(r.seconds["darcy"] for r in plain),
            "peak_rss_mb": peak_rss_mb(),
            "field_rel_l2": med(r.values["field_rel_l2"] for r in plain),
            "pressure_rel_l2": med(r.values["pressure_rel_l2"] for r in plain),
        }
        units = {k: u for k, (u, _) in END_TO_END.items()}

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment.describe(ROOT),
        "rounds": len(rounds), "round_walls": [r.wall for r in rounds],
        "round_seconds": [r.seconds for r in rounds],
        "setup_walls": setups, "problems": problems, "failures": failures,
        **result,
    }
    tag = f"{name}-seed{seed}"
    if trace:
        record["spans"] = tracer.spans
        record["summary"] = tracing.summary([s for s in tracer.spans if s["phase"] == "run"])
        path = OUT / f"trace-{tag}.json"
    else:
        path = OUT / f"result-{tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def print_report(name, result, record):
    env = record["environment"]
    print(f"workload {name}: seed {record['seed']}, {record['rounds']} rounds, "
          f"trace {record['trace']}")
    print("environment " + json.dumps(env, sort_keys=True))
    for key, m in result["metrics"].items():
        print(f"  {key:32s} {m['value']:.6g} {m['unit']}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    for line in record["failures"][:20] + record["problems"][:20]:
        print(f"  ! {line}")


def run_all(args):
    """Each workload in a fresh process, so peak RSS stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fieldfit" / "__init__.py").is_file():
        print(f"error: no fieldfit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.workload == "all":
        return run_all(args)
    if args.workload in ONE_BLAS_THREAD:
        import environment

        environment.pin_one_blas_thread()
    result, record = measure(args.workload, args.seed, args.seconds, args.trace)
    print_report(args.workload, result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
