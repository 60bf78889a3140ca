"""Benchmark of the ``bci`` package: one workload per run, in one process.

Run from the repository root:

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

``--workload`` is ``search``, ``enumerate`` or ``cli`` (see ``workloads.py``).
The seed makes the workload's inputs; ``--seconds`` (default: ``run_seconds``
of ``BENCHMARK.json``) sizes the run, which measures for about that long on
a 2-core Xeon VM at 2.0 GHz.  With ``--trace 0``
the run makes the workload's untraced passes and reports the end-to-end
metrics of ``BENCHMARK.json``.  An op's time is its median over the passes
and the wall time is the median pass: on a shared machine the median repeats
from run to run, where the fastest pass does not.  With ``--trace 1`` a
traced pass runs between each two untraced ones; the run reports per-pass
layer metrics and the tracing overhead (traced against untraced op times,
with the noise of that comparison) and writes the spans to
``perfbench/out/``.  Every output is checked, traced ones against untraced.

Standard output ends with two JSON lines: a record (environment, settings,
each metric's unit and direction, and details such as the tail percentile),
then the result ``{"correct", "attempted", "failed", "metrics"}``.  The run
exits non-zero without a result when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPEATS = 5
IMPORT_REPEATS = 9
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import bci, bci.cli; print(time.perf_counter() - t)"
)


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _environment(seed: int) -> dict:
    import numpy as np

    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
        "commit": _git_commit(),
    }


def _import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least ten of ``samples`` beyond it."""
    return next(p for p in TAIL_LADDER if samples * (1.0 - p / 100.0) >= 10)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _emit(record: dict, correct: bool, attempted: int, failed: int, values: dict,
          spec: list[dict]) -> None:
    metrics = {}
    for m in spec:
        if m["name"] not in values:
            raise KeyError(f"benchmark bug: metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    record["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"], "better": m["better"]}
        for m in spec
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("search", "enumerate", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bci" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    # single-threaded load: pin BLAS pools before numpy is imported
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    seconds = args.seconds or spec["run_seconds"]

    import bci
    import bci.cli  # noqa: F401  (loads every module the tracer patches)
    from tracing import Tracer
    from workloads import WORKLOADS, measure, op_medians

    if Path(bci.__file__).resolve().parent != (SRC / "bci").resolve():
        print(f"error: bci imported from {bci.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # set-up: import, input generation and warm-up, repeated; medians reported
    import_s = _import_seconds()
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        workload = WORKLOADS[args.workload](bci, args.seed, seconds)
        workload.warm_up()
        builds.append(perf_counter() - t0)

    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "trace": args.trace,
        "seconds": seconds,
        "environment": _environment(args.seed),
        "setup": {"import_s": import_s, "inputs_and_warm_up_s": builds},
    }

    if args.trace == 0:
        m = measure(workload, workload.passes)
        times = op_medians(m.op_times)
        tail_p = tail_percentile(len(times))
        tail = percentile(times, tail_p)
        values = {
            "setup_s": import_s + statistics.median(builds),
            "wall_s": statistics.median(m.walls),
            "ops_per_s": len(times) / sum(times),
            "op_p50_ms": 1e3 * statistics.median(times),
            "op_tail_ms": 1e3 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": (m.attempted - m.failed) / m.attempted,
            "equilibria_found": m.found,
        }
        record.update({
            "passes": len(m.walls),
            "pass_walls_s": m.walls,
            "ops_per_pass": len(times),
            "fail_frac": m.failed / m.attempted,
            "op_tail_percentile": tail_p,
            "op_tail_samples_beyond": sum(1 for t in times if t > tail),
        })
        _emit(record, m.failed == 0, m.attempted, m.failed, values, spec["end_to_end"])
        return 0

    # traced: each traced pass runs between two untraced ones, and the run
    # makes about as many passes as an untraced one; layer metrics are per
    # traced pass.  The overhead compares the traced and untraced
    # passes op by op, through each op's median time.  Its noise is the same
    # comparison between the even and the odd untraced passes, which differ
    # in nothing but the moment they ran; the overhead is resolved only when
    # it exceeds that noise.
    tracer = Tracer()
    m = measure(workload, max(1, workload.passes // 2) + 1, tracer)
    plain = sum(op_medians(m.op_times))
    overhead_frac = sum(op_medians(m.traced_op_times)) / plain - 1.0
    noise_frac = abs(sum(op_medians(m.op_times[0::2])) / sum(op_medians(m.op_times[1::2])) - 1.0)
    values = tracer.layer_metrics(len(m.traced_walls), sum(m.traced_walls))
    values["trace.overhead_s"] = overhead_frac * statistics.median(m.walls)
    values["trace.overhead_frac"] = overhead_frac
    values["trace.overhead_noise_frac"] = noise_frac
    missing = [name for name in workload.expected if values[f"{name}.calls"] == 0]
    unexpected = [name for name in workload.absent if values[f"{name}.calls"] != 0]
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{args.workload}-{args.seed}.json"
    tracer.dump(span_file)
    record.update({
        "untraced_walls_s": m.walls,
        "traced_walls_s": m.traced_walls,
        "fail_frac": m.failed / m.attempted,
        "trace_overhead_resolved": overhead_frac > noise_frac,
        "boundaries_without_calls": missing,
        "boundaries_called_unexpectedly": unexpected,
        "spans_file": str(span_file.relative_to(ROOT)),
    })
    correct = m.failed == 0 and not missing and not unexpected
    _emit(record, correct, m.attempted, m.failed, values, spec["per_layer"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
