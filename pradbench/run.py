"""Benchmark for pradial: one workload per process, closed loop, one client.

    python3 pradbench/run.py --workload chain-spectra --seed 1 --seconds 10 --trace 0
    python3 pradbench/run.py --workload all

Run from the repository root.  The program is imported from ./src, never
from an installed copy.  A run executes whole rounds of its workload's op
list until --seconds have passed (at least one round), checks every op
against an oracle computed apart from pradial, writes a strict-JSON
results file under pradbench/out/, and prints one JSON object as its last
line of standard output.  --trace 1 runs one untraced and one traced pass
and reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# closed loop, one client: BLAS may not add threads of its own
BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

SETUP_BEFORE, SETUP_AFTER = 2, 1
WORKLOAD_NAMES = ("chain-spectra", "exact-io", "functionals")
OP_KINDS = ("sample", "test-norm-law", "rate", "ldp-verify", "norm-const",
            "asymptotics", "library")


def setup_samples(k: int) -> list[float]:
    """Wall times of k fresh interpreters importing pradial.cli, the cost
    every CLI call pays before it does any work."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(k):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pradial.cli"], env=env,
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def run_pass(workload, seed, tracer=None):
    """One pass of the op list.  Returns the outcomes; checks run after
    each op and outside its timing."""
    from workloads import FAULT_SEED, Outcome, derive_seed

    outcomes = []
    for i, op in enumerate(workload.ops(seed)):
        op_seed = FAULT_SEED if op.fault else derive_seed(seed, i) % 2**31
        t0 = time.perf_counter()
        if tracer is None:
            res = op.run(op_seed)
        else:
            res = tracer.span(f"op.{op.name}", op.run, op_seed)
        seconds = time.perf_counter() - t0
        try:
            verdicts, info = op.check(res)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            from checks import Verdict
            verdicts, info = [Verdict("check raised", 1.0, 0.0, False, repr(exc))], {}
        outcomes.append(Outcome(op, seconds, verdicts, info))
    return outcomes


def pass_metrics(outcomes) -> dict:
    """Per-pass figures: wall time and the time per op kind."""
    m = {"wall_s": sum(o.seconds for o in outcomes)}
    for kind in OP_KINDS:
        m[f"op.{kind.replace('-', '_')}_s"] = sum(
            o.seconds for o in outcomes if o.op.kind == kind)
    sample = [o for o in outcomes if o.op.kind == "sample"]
    t_sample = sum(o.seconds for o in sample)
    m["op.draws_per_s"] = sum(o.op.rows for o in sample) / t_sample if sample else 0.0
    chain = [o for o in sample if "ess_dir" in o.info]
    t_chain = sum(o.seconds for o in chain)
    m["op.ess_per_s"] = (sum(o.info["ess_dir"] for o in chain) / t_chain
                         if chain else 0.0)
    return m


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "pradial").glob("*.py")))


def finite(obj):
    """Strict-JSON form: non-finite floats become strings."""
    if isinstance(obj, dict):
        return {k: finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def run_workload(name, seed, seconds, trace) -> dict:
    import numpy as np
    import scipy

    sys.path.insert(0, str(SRC))
    from pradial import _kernels, cli

    import checks
    from tracer import Tracer, layer_metrics, module_self_times
    from workloads import FAULTS, WORKLOADS, derive_seed

    if Path(cli.__file__).resolve().parent != SRC / "pradial":
        raise SystemExit(f"pradial imported from {cli.__file__}, not {SRC}")

    workdir = OUT / "work" / name
    workdir.mkdir(parents=True, exist_ok=True)
    setup = setup_samples(SETUP_BEFORE)
    self_tests = checks.self_tests()
    workload = WORKLOADS[name](cli, workdir)
    workload.warmup()

    rounds, t_start = [], time.perf_counter()
    min_rounds = 1 if trace else workload.min_rounds
    while len(rounds) < min_rounds or (
            not trace and time.perf_counter() - t_start < seconds):
        rounds.append(run_pass(workload, derive_seed(seed, len(rounds))))
    setup += setup_samples(SETUP_AFTER)
    metrics = {k: statistics.median(pass_metrics(r)[k] for r in rounds)
               for k in pass_metrics(rounds[0])}

    trace_file, self_by_module = None, {}
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_pass(workload, derive_seed(seed, 0), tracer)
        finally:
            tracer.uninstall()
        ess = lambda rows, p: checks.segment_ess(checks.direction_stat(rows, p))
        layers = layer_metrics(tracer.spans, ess)
        self_by_module = module_self_times(tracer.spans)
        traced_wall = pass_metrics(traced)["wall_s"]
        layers["trace.overhead_s"] = traced_wall - metrics["wall_s"]
        layers["trace.overhead_frac"] = layers["trace.overhead_s"] / metrics["wall_s"]
        layers["trace.span_cost_s"] = Tracer.span_cost() * len(tracer.spans)
        layers.update({k: v for k, v in metrics.items() if k.startswith("op.")})
        trace_file = OUT / f"TRACE_{name}_s{seed}.json"
        tracer.write(trace_file)
        rounds.append(traced)
        report = layers
    else:
        report = {"setup_s": statistics.median(setup), "wall_s": metrics["wall_s"],
                  "peak_rss_mb": peak_rss_mb()}

    outcomes = [o for r in rounds for o in r]
    failed = [o for o in outcomes if not o.passed]
    unexpected = [o for o in failed if not o.op.fault]
    correct = not unexpected and all(v.passed for v in self_tests)

    results = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": len(rounds), "attempted": len(outcomes), "failed": len(failed),
        "correct": correct, "metrics": report, "pass_metrics": metrics,
        "faults": {f: FAULTS[f] for f in sorted({o.op.fault for o in failed
                                                 if o.op.fault})},
        "ops": [{"name": o.op.name, "kind": o.op.kind, "seconds": o.seconds,
                 "fault": o.op.fault, "passed": o.passed, "info": o.info,
                 "checks": [v.to_dict() for v in o.verdicts]} for o in outcomes],
        "self_tests": [v.to_dict() for v in self_tests],
        "setup_samples_s": setup, "spans": len(tracer.spans) if trace else 0,
        "self_s_by_module": self_by_module,
        "trace_file": trace_file and str(trace_file.relative_to(ROOT)),
        "backend": _kernels.BACKEND, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(), "src_pradial_lines": src_lines(),
    }
    with open(OUT / f"BENCH_{name}_s{seed}_t{trace}.json", "w") as fh:
        json.dump(finite(results), fh, indent=1, allow_nan=False)
    shutil.rmtree(workdir, ignore_errors=True)
    return results


def print_human(res):
    for o in res["ops"]:
        mark = "ok  " if o["passed"] else ("FAIL" + (f" [{o['fault']}]" if o["fault"] else ""))
        print(f"  {mark:10s} {o['seconds']:8.3f} s  {o['name']}")
        for v in o["checks"]:
            if not v["passed"]:
                print(f"             {v['name']}: {v['statistic']} vs {v['threshold']}"
                      f" {v['detail']}")
    for f, text in res["faults"].items():
        print(f"  fault {f}: {text}")
    for k, v in res["metrics"].items():
        print(f"  {k:36s} {v:14.6g} {unit(k)}")
    print(f"  attempted {res['attempted']} failed {res['failed']} "
          f"correct {res['correct']} rounds {res['rounds']}")


def run_all(seed, seconds, trace) -> int:
    """Every workload, each in its own process, one after the other."""
    summary = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        print(f"== {name}")
        print(proc.stdout.rstrip())
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": summary}, allow_nan=False))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "pradial" / "cli.py").is_file():
        print(f"no pradial sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(BENCH_DIR))
    OUT.mkdir(exist_ok=True)
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_human(res)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": unit(k)}
                                  for k, v in res["metrics"].items()}},
                     allow_nan=False))
    return 0


def unit(name):
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("frac", "rate", "draw")):
        return "ratio"
    return "count"

if __name__ == "__main__":
    sys.exit(main())
