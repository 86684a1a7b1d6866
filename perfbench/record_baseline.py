"""Run the benchmark on ten seeds per workload and record the result in ``baseline.json``.

For every workload of ``BENCHMARK.json`` this runs ``run.py --trace 0`` once
per seed and ``run.py --trace 1`` once on the first seed, all with the
contract's ``run_seconds``, one run at a time.  Per end-to-end metric it
stores the median and quartiles over the seeds (``statistics.quantiles``,
``n=4``) and prints the spread, ``(q3 - q1) / median``, next to the
metric's bound.  The entry is appended to ``baseline.json``; an entry with
the same label is replaced.  From the root of a checkout::

    python3 perfbench/record_baseline.py --label "seed commit (before any optimisation)"
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BASELINE_PATH = BENCH_DIR / "baseline.json"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; its result line and the provenance from its report line."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    report = next(json.loads(line[len("report "):]) for line in lines if line.startswith("report "))
    return json.loads(lines[-1]), report["provenance"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N per workload")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = benchmark["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))

    entry = {"label": args.label, "run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        results = []
        for seed in seeds:
            result, provenance = run_once(workload, seed, seconds, trace=0)
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
        traced, _ = run_once(workload, seeds[0], seconds, trace=1)
        end_to_end = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            unit = results[0]["metrics"][name]["unit"]
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3, "unit": unit}
            print(f"{workload:14s} {name:18s} median {median:12.6g} {unit:5s} spread {(q3 - q1) / median:.3f}"
                  f" (bound {bounds[name]})")
        entry["workloads"][workload] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "end_to_end": end_to_end,
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        entry["provenance"] = {k: v for k, v in provenance.items() if k != "seed"}
        entry["commit"] = provenance["git_sha"]

    baseline = json.loads(BASELINE_PATH.read_text(encoding="utf-8")) if BASELINE_PATH.exists() else {"entries": []}
    baseline["entries"] = [e for e in baseline["entries"] if e["label"] != args.label] + [entry]
    BASELINE_PATH.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
