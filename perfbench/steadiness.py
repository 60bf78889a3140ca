"""Steadiness self-check: is each end-to-end metric steady within its bound?

Run from the repository root:

    python3 perfbench/steadiness.py

For each workload this runs ``run.py`` ten times, one process after
another, with seeds 1 to 10, and reports per end-to-end metric the
spread of its values: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  A spread
must stay within the metric's bound in ``BENCHMARK.json`` and should stay
below a third of it.  Runs last ``run_seconds``.
Raw values go to ``perfbench/out/steadiness.json``; the exit code is 1 when
a spread exceeds its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: outputs failed their checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    raw: dict[str, list[dict]] = {}
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        raw[workload] = []
        for seed in SEEDS:
            values = run_once(workload, seed, seconds)
            raw[workload].append(values)
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)

        print(f"\n{workload}: metric, median, spread, bound")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [run[name] for run in raw[workload]]
            s = spread(values)
            flag = ""
            if s > bound:
                flag = "SPREAD>BOUND"
                failures.append((workload, name))
            elif s > bound / 3:
                flag = "spread>bound/3"
            print(f"  {name:18s} {statistics.median(values):12.6g} {s:7.3f} {bound:6.3f} {flag}")

    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(
        {"seeds": list(SEEDS), "seconds": seconds, "values": raw}, indent=1))
    if failures:
        print("unsteady:", ", ".join(f"{w}/{n}" for w, n in failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
