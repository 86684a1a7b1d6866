"""crtiv benchmark: two workloads through the real command line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sim_default --seed 1 --seconds 55 --trace 0

Workloads (see ``workloads.py`` for why each was chosen):

- ``sim_default``: ``crtiv simulate`` on the default scenario, 1 worker.
- ``analyze_200k``: ``crtiv analyze --adjust-x x_1 --adjust-w w_1`` on a
  200k-row CSV.

Each CLI invocation is one fresh process, ``tracer.py run``, which imports
``crtiv.cli`` and calls ``crtiv.cli.main`` exactly as ``python3 -m
crtiv.cli`` does, with the checkout's ``src`` on ``PYTHONPATH`` and BLAS
pinned to one thread.  It notes when the import finished, so one process
gives both the set-up and the work of a call.  The loop is closed, from one
process: this script waits for one CLI process before it starts the next,
until ``--seconds`` have passed and at least ``MIN_ROUNDS`` times; a failed
run ends the loop.  The printed summary states the sample count.

With ``--trace 0`` the last line reports the end-to-end metrics:

- ``setup_s``: from process start until ``import crtiv, crtiv.cli`` is done,
  which every CLI call pays (numpy and scipy are most of it).
- ``wall_s``: wall time of one CLI process, start to exit, less the probe
  (below).
- ``cpu_s``: user plus system CPU of the CLI process and its children
  (``wait4`` rusage), less the probe's.
- ``peak_rss_mb``: largest resident set in the CLI process tree.
- ``replicates_per_s``: datasets fitted or made per second spent in
  ``crtiv.cli.main``: retained replicates for ``simulate``, the one trial
  for ``analyze``.
- ``rows_per_s``: CSV data rows read plus written per second spent in
  ``crtiv.cli.main`` (for ``simulate``, the 48 report rows).

The contract asks for every end-to-end metric on every workload, so both
rates are defined on both.

Times and rates are per call over the whole run (a time is the run's total
divided by its calls, a rate is total work over total time), and they are
reported at a fixed reference speed of the host.  On a shared host the same
call runs up to twice as fast or slow from one second or minute to the
next, with the neighbours' load.  So every CLI process also times
``tracer.probe``, a fixed mix of interpreter and small numpy work that is
the benchmark's own, right after its imports; the probe's time is taken out
of the process's wall and CPU time, and every time of a run is multiplied by
``PROBE_REFERENCE_S`` over the run's mean probe time (rates are divided by
it).  A change to crtiv leaves the probe as it is, so it moves the scaled
times as it moves the raw ones.  Totals rather than medians, because the
calls of a run fall into fast and slow spells, and a median jumps between
them while a total follows their mix, as the probe's total does.  Peak
memory is the median call's.  The raw samples and the factor are in the
report.

Failures are counted per operation: a simulate operation is one variant fit
on one retained replicate (48 per replicate, failed when the report counts
it in ``n_fit_failures``); an analyze operation is one CLI run.
A run that exits non-zero or fails its output checks fails all of its
operations.  The error rate is printed and carried by ``attempted`` and
``failed``.

Every output is checked (see ``workloads.py``).  The first output of a run
is checked in full and every later one must repeat it byte for byte.

With ``--trace 1`` the last line reports per-layer metrics: rounds of an
untraced and a traced ``tracer.py run`` with the workload's arguments, and
the import times of numpy, scipy and crtiv from a fresh interpreter.

Every run prints a ``report`` line with the provenance (machine, versions,
BLAS settings, source hash, seed) and the sha256 of each input, and writes
it with every sample and any spans to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads as wl  # noqa: E402
from tracer import monotonic  # noqa: E402

MIN_ROUNDS = 3
# Typical time of ``tracer.probe`` on the host that recorded baseline.json (a
# 2-vCPU KVM guest on an Intel Xeon); every reported time is scaled to it.
PROBE_REFERENCE_S = 0.25
PROCESS_TIMEOUT_S = 60.0
CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}


class Unusable(Exception):
    """The checkout cannot run the benchmark at all; no result is printed."""


# --- processes -----------------------------------------------------------------


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list[str], log: Path, timeout: float = PROCESS_TIMEOUT_S) -> dict:
    """Run one process to completion; its wall time and rusage (with children).

    Standard output goes to ``log``, standard error to ``log`` + ``.err``.
    The process gets its own process group, which is killed on timeout so
    that any child processes end with it.
    """
    env = {**os.environ, **CHILD_ENV}
    with open(log, "wb") as out, open(f"{log}.err", "wb") as err:
        start = monotonic()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True
        )
        timer = threading.Timer(timeout, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "spawned_at": start,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def _checked(argv: list[str], log: Path) -> dict:
    """``run_process`` for a helper that must succeed for the run to mean anything."""
    result = run_process(argv, log)
    if result["code"] != 0:
        raise Unusable(Path(f"{log}.err").read_text(errors="replace").strip()[-500:])
    return result


def inprocess(workdir: Path, tag: str, cli_args: list[str], trace: bool) -> dict:
    """Run the command line through ``tracer.py run`` in a fresh process.

    Returns the process's wall time, CPU and memory, and what the runner
    wrote: ``code`` is the command line's exit code, ``setup_s`` the time from
    process start until the package was imported, ``main_s`` the time in
    ``crtiv.cli.main``, ``probe_s`` the time of ``tracer.probe``.  The
    probe's wall and CPU time are taken out of the process's.
    """
    out = workdir / f"{tag}.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "tracer.py"), "run", "--trace", str(int(trace))]
    argv += ["--out", str(out)]
    if trace:
        argv += ["--spans", str(workdir / f"{tag}.spans.jsonl")]
    process = run_process(argv + ["--", *cli_args], workdir / f"{tag}.log")
    if process["code"] != 0 or not out.exists():
        return {**process, "code": process["code"] or 1}
    result = json.loads(out.read_text(encoding="utf-8"))
    return {
        **process,
        **result,
        "setup_s": result["imported_at"] - process["spawned_at"],
        "wall_s": process["wall_s"] - result["probe_s"],
        "cpu_s": process["cpu_s"] - result["probe_cpu_s"],
    }


# --- provenance ----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256() -> str:
    """Hash of the package source, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "crtiv").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: CHILD_ENV[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_sha": _git_sha(),
        "source_sha256": source_sha256(),
    }


# --- output checks ---------------------------------------------------------------


class Checker:
    """Checks each invocation's outputs and counts failed operations.

    The first output of a workload (or a supplied reference output) is
    checked in full; every later output must be byte-identical to it, since
    each invocation repeats the same deterministic work.
    """

    def __init__(self, workload: wl.Workload, inputs: dict[str, Path]):
        self.workload = workload
        self.ops_per_run = 48 * workload.replicates if workload.command == "simulate" else 1
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[str, str] | None = None
        self._fit_failures = 0
        self._reference_ok = False
        self._oracle = wl.analyze_oracle(inputs["trial.csv"]) if workload.command == "analyze" else None
        self._sim_reference = wl.load_reference(workload) if workload.command == "simulate" else None

    def _full_check(self, outdir: Path) -> list[str]:
        kind = self.workload.command
        if kind == "analyze":
            return wl.check_analyze(outdir, self._oracle)
        problems, self._fit_failures = wl.check_simulate(outdir, self.workload, self._sim_reference)
        return problems

    def check(self, outdir: Path, code: int, label: str) -> bool:
        """Check one run's outputs; True when they are correct."""
        self.attempted += self.ops_per_run
        problems = [f"exit code {code}"] if code != 0 else []
        files = wl.output_files(self.workload)
        if not problems:
            missing = [f for f in files if not (outdir / f).is_file()]
            problems = [f"missing {f}" for f in missing]
        if not problems:
            digests = {f: wl.sha256_file(outdir / f) for f in files}
            if self._digests is None:
                problems = self._full_check(outdir)
                self._digests, self._reference_ok = digests, not problems
            elif digests != self._digests:
                problems = ["outputs differ from the first checked run"]
            elif not self._reference_ok:
                problems = ["outputs repeat a run that failed its checks"]
        if problems:
            self.failed += self.ops_per_run
            self.problems += [f"{label}: {p}" for p in problems[:5]]
            return False
        self.failed += self._fit_failures
        return True


# --- measurement -------------------------------------------------------------------


def _median(values):
    return statistics.median(values) if values else 0.0


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def host_speed(samples: list[dict]) -> float:
    """How many times faster than the reference host the samples' processes ran.

    The ratio of ``PROBE_REFERENCE_S`` to the mean time of ``tracer.probe``
    over the samples; a time times this factor is that time at the
    reference host's speed.
    """
    probes = [s["probe_s"] for s in samples]
    return PROBE_REFERENCE_S / statistics.fmean(probes) if probes else 1.0


def measure_end_to_end(workload, inputs, seed, seconds, workdir, checker) -> tuple[dict, dict]:
    runs = []
    start = time.monotonic()
    while True:
        outdir = workdir / f"out{len(runs)}"
        run = inprocess(workdir, f"cli{len(runs)}", wl.cli_args(workload, inputs, seed, outdir), False)
        run["ok"] = checker.check(outdir, run["code"], f"run {len(runs)}")
        run["rows"] = wl.rows_processed(workload, outdir) if run["ok"] else 0
        runs.append(run)
        shutil.rmtree(outdir, ignore_errors=True)
        elapsed = time.monotonic() - start
        if not run["ok"] or len(runs) >= MIN_ROUNDS and elapsed + elapsed / len(runs) > seconds:
            break

    return end_to_end_metrics(workload, runs), {"runs": runs}


def end_to_end_metrics(workload, runs: list[dict]) -> dict:
    """Metrics over the runs whose outputs passed their checks; name -> (value, unit).

    Times are means per call and rates are totals over total time, both at
    the reference host's speed; peak memory is the median.
    """
    ok = [r for r in runs if r["ok"]]
    speed = host_speed(ok)
    replicates = workload.replicates if workload.command == "simulate" else 1
    main_s = _mean([r["main_s"] for r in ok])
    return {
        "setup_s": (_mean([r["setup_s"] for r in ok]) * speed, "s"),
        "wall_s": (_mean([r["wall_s"] for r in ok]) * speed, "s"),
        "cpu_s": (_mean([r["cpu_s"] for r in ok]) * speed, "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in ok]), "MB"),
        "replicates_per_s": (replicates / main_s / speed if ok else 0.0, "1/s"),
        "rows_per_s": (_mean([r["rows"] for r in ok]) / main_s / speed if ok else 0.0, "1/s"),
    }


PER_LAYER_SPANS = (
    ("dgp.generate", True),
    ("dgp.screen_weak_instrument", True),
    ("mc.fit_variants", True),
    ("mc.run_study", False),
    ("iv.tsls", True),
    ("iv.first_stage_f", True),
    ("wls.fit_wls", True),
    ("wls.inference", True),
    ("iv.itt", True),
    ("collapse.cluster_means", True),
    ("collapse.summaries_from_values", True),
    ("collapse.continuous_residuals", True),
    ("collapse.anova_icc", True),
    ("model.validate", True),
    ("model.TrialDataset.columns", False),
    ("cli.ingest_csv", False),
    ("cli.main", False),
)


def measure_per_layer(workload, inputs, seed, seconds, workdir, checker) -> tuple[dict, dict]:
    imports, untraced, traced = [], [], []
    start = time.monotonic()
    while True:
        log = workdir / "imports.log"
        _checked([sys.executable, str(BENCH_DIR / "tracer.py"), "imports"], log)
        imports.append(json.loads(log.read_text(encoding="utf-8")))
        for trace, results in ((False, untraced), (True, traced)):
            tag = f"{'traced' if trace else 'untraced'}{len(results)}"
            outdir = workdir / tag
            result = inprocess(workdir, tag, wl.cli_args(workload, inputs, seed, outdir), trace)
            result["ok"] = checker.check(outdir, result["code"], tag)
            results.append(result)
            shutil.rmtree(outdir, ignore_errors=True)
        elapsed = time.monotonic() - start
        if not traced[-1]["ok"] or elapsed + elapsed / len(traced) > seconds:
            break

    for previous in traced[1:]:
        if previous.get("calls") != traced[0].get("calls"):
            checker.problems.append("per-layer call counts differ between traced runs")
            checker.failed += checker.ops_per_run
    metrics = per_layer_metrics(imports, untraced, traced)
    return metrics, {"imports": imports, "untraced": untraced, "traced": traced}


def per_layer_metrics(imports: list[dict], untraced: list[dict], traced: list[dict]) -> dict:
    """Per-layer metrics from checked runs; name -> (value, unit).

    Counts come from the first traced run (they repeat exactly), times are
    means over the runs at the reference host's speed, like the end-to-end
    times.
    """
    summaries = [t for t in traced if t["ok"]]
    first = summaries[0] if summaries else {"calls": {}, "counters": {}}
    calls, counters = first["calls"], first["counters"]
    speed = host_speed(summaries)
    metrics = {}
    for step in ("numpy", "scipy", "crtiv"):
        import_s = _mean([i[f"{step}_import_s"] for i in imports])
        metrics[f"setup.{step}_import_s"] = (import_s * host_speed(imports), "s")
    for name, with_calls in PER_LAYER_SPANS:
        if with_calls:
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (_mean([t["self_s"].get(name, 0.0) for t in summaries]) * speed, "s")
    screened = calls.get("dgp.screen_weak_instrument", 0)
    accepted = counters.get("dgp.screen_weak_instrument", {}).get("accepted", 0)
    metrics["dgp.screen.accept_ratio"] = (accepted / screened if screened else 0.0, "ratio")
    metrics["wls.critical_value.calls"] = (calls.get("wls.critical_value", 0), "count")
    metrics["cli.ingest_csv.bytes"] = (counters.get("cli.ingest_csv", {}).get("bytes", 0), "bytes")
    untraced = [u for u in untraced if u["ok"]]
    traced_s = _mean([t["main_s"] for t in summaries]) * speed
    metrics["trace.overhead_s"] = (traced_s - _mean([u["main_s"] for u in untraced]) * host_speed(untraced), "s")
    return metrics


# --- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crtiv benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    if not (SRC / "crtiv" / "cli.py").is_file():
        print(f"perfbench: no crtiv source tree at {SRC}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    workdir = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        # untimed import; on a fresh checkout this byte-compiles the package
        _checked([sys.executable, "-c", "import crtiv, crtiv.cli"], workdir / "warm_up.log")
        inputs = wl.prepare_inputs(workload, args.seed, workdir / "inputs")
        inputs_sha256 = {name: wl.sha256_file(path) for name, path in inputs.items()}
        checker = Checker(workload, inputs)
        measure = measure_per_layer if args.trace else measure_end_to_end
        metrics, samples = measure(workload, inputs, args.seed, args.seconds, workdir, checker)
        spans = sorted(workdir.glob("traced*.spans.jsonl"))
        if spans:
            out_dir.mkdir(exist_ok=True)
            shutil.copy(spans[0], out_dir / f"{workload.name}-seed{args.seed}.spans.jsonl")
    except Unusable as exc:
        print(f"perfbench: cannot run crtiv: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = checker.failed == 0 and not checker.problems
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "inputs_sha256": inputs_sha256,
        "error_rate": checker.failed / max(checker.attempted, 1),
        "host_speed": host_speed([s for s in samples.get("runs", samples.get("traced", [])) if s.get("ok")]),
        "problems": checker.problems,
        "samples": samples,
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8"
    )
    n = len(samples.get("runs", samples.get("traced", [])))
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} samples={n}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    print(f"  {'error_rate':42s} {report['error_rate']:14.6g} ({checker.failed}/{checker.attempted})")
    print(f"  {'host_speed':42s} {report['host_speed']:14.6g} (times above are raw times x this, rates raw rates / this)")
    for problem in checker.problems:
        print(f"  FAILED CHECK {problem}")
    print("report " + json.dumps({k: report[k] for k in ("provenance", "inputs_sha256", "error_rate")}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
