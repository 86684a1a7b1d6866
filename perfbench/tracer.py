"""Spans around crtiv's layer calls, and an in-process runner for ``crtiv.cli.main``.

The tracer wraps public functions of the package at every binding site: a
function imported by name into another module (``crtiv.mc.generate``,
``crtiv.cli.generate``) is replaced there too, and attribute calls such as
``wls.fit_wls(...)`` see the wrapper through the module attribute.  Each call
records a span ``[name, start, end, parent]``; spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus the
time its child spans cover.

Run as a script, from a checkout whose ``src`` is on ``PYTHONPATH``::

    python3 perfbench/tracer.py imports
    python3 perfbench/tracer.py run --trace 1 --out result.json --spans spans.jsonl -- simulate ...

``imports`` prints the import times of numpy, scipy and crtiv in a fresh
interpreter.  ``run`` is the command line itself (``crtiv.cli.main`` with the
arguments after ``--``), with or without spans; it writes to ``--out`` when
the package finished importing, the wall time of ``main``, the CPU time of
its child processes (pool workers) and the per-layer summary.

Both modes also time :func:`probe`, a fixed piece of work that is not crtiv's,
in the same process: ``imports`` after the imports, ``run`` between the
import and ``main``.  The benchmark uses it to tell how fast the host ran
while the process ran.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path) of every traced callable; the span name drops the
# package prefix, e.g. "wls.fit_wls" or "model.TrialDataset.columns".
TARGETS = (
    ("crtiv.cli", "main"),
    ("crtiv.cli", "ingest_csv"),
    ("crtiv.mc", "run_study"),
    ("crtiv.mc", "fit_variants"),
    ("crtiv.dgp", "generate"),
    ("crtiv.dgp", "screen_weak_instrument"),
    ("crtiv.iv", "tsls"),
    ("crtiv.iv", "itt"),
    ("crtiv.iv", "first_stage_f"),
    ("crtiv.wls", "fit_wls"),
    ("crtiv.wls", "inference"),
    ("crtiv.wls", "critical_value"),
    ("crtiv.collapse", "cluster_means"),
    ("crtiv.collapse", "summaries_from_values"),
    ("crtiv.collapse", "continuous_residuals"),
    ("crtiv.collapse", "anova_icc"),
    ("crtiv.model", "validate"),
    ("crtiv.model", "TrialDataset.columns"),
)


def _size(path) -> int:
    return os.path.getsize(path)


# Counters taken from a call's arguments or result once it returns.
_COUNTERS = {
    "cli.ingest_csv": lambda args, result: {"bytes": _size(args[0])},
    "dgp.screen_weak_instrument": lambda args, result: {"accepted": int(bool(result))},
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self.site_calls: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, name: str, fn, site: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = _COUNTERS.get(name)
        site_calls = self.site_calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            site_calls[site] += 1
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if count is not None:
                self.counters[name].update(count(args, result))
            return result

        return traced

    def install(self) -> None:
        """Replace every traced callable at every binding site in ``crtiv``.

        Each binding site gets its own wrapper, so ``site_calls`` shows which
        sites a run went through; :meth:`uninstall` puts the originals back.
        """
        import crtiv.cli  # noqa: F401  (imports every module of the package)

        modules = {n: m for n, m in sys.modules.items() if n == "crtiv" or n.startswith("crtiv.")}
        for module_name, path in TARGETS:
            name = f"{module_name.removeprefix('crtiv.')}.{path}"
            owner = modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            if outer:  # a method: the class attribute is its only binding site
                bindings = [(owner, attr, f"{module_name}.{path}")]
            else:
                bindings = [
                    (module, binding, f"{other_name}.{binding}")
                    for other_name, module in modules.items()
                    for binding, value in vars(module).items()
                    if value is original
                ]
            for owner, binding, site in bindings:
                self._installed.append((owner, binding, original))
                self.site_calls[site] = 0
                setattr(owner, binding, self.wrap(name, original, site))

    def uninstall(self) -> None:
        for owner, binding, original in reversed(self._installed):
            setattr(owner, binding, original)
        self._installed.clear()

    def summary(self) -> dict:
        """Calls and self time per span name, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            calls[name] += 1
            self_s[name] += end - start - covered
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "counters": {k: dict(v) for k, v in self.counters.items()},
            "site_calls": dict(self.site_calls),
        }

    def write_spans(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start - origin, end - origin, parent]) + "\n")


def probe() -> tuple[float, float]:
    """Wall and CPU time of a fixed mix of interpreter and small-array numpy work.

    About 0.25 s on a 2-vCPU Xeon guest.  The mix resembles crtiv's own: a
    loop of dictionary, float and string operations, then small
    least-squares solves.  Its inputs are constants, so its work never
    changes.
    """
    import numpy as np

    wall, cpu = time.perf_counter(), time.process_time()
    total, table = 0.0, {}
    for i in range(500_000):
        total += i * 0.5
        table[i & 255] = total
        str(i)
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(50, 3)), rng.normal(size=50)
    for _ in range(5_000):
        total += float(np.linalg.lstsq(a, b, rcond=None)[0][0]) + float((a * b[:, None]).sum())
    return time.perf_counter() - wall, time.process_time() - cpu


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_main(argv: list[str], trace: bool) -> tuple[dict, Tracer | None]:
    """Call ``crtiv.cli.main(argv)`` in this process; time it and its children.

    ``imported_at`` is when the package had finished importing, on the
    :func:`monotonic` clock, so the parent can time the set-up of this very
    process; :func:`probe` runs right after that, before ``main``.
    """
    import crtiv.cli

    imported_at = monotonic()
    probe_s, probe_cpu_s = probe()
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu_start = time.process_time()
        start = time.perf_counter()
        code = crtiv.cli.main(argv)
        main_s = time.perf_counter() - start
        cpu_s = time.process_time() - cpu_start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
    finally:
        if tracer is not None:
            tracer.uninstall()
    children_cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    result = {
        "code": code,
        "imported_at": imported_at,
        "probe_s": probe_s,
        "probe_cpu_s": probe_cpu_s,
        "main_s": main_s,
        "main_cpu_s": cpu_s + children_cpu_s,
        "children_cpu_s": children_cpu_s,
    }
    if tracer is not None:
        result.update(tracer.summary())
    return result, tracer


def import_times() -> dict:
    """Import numpy, the scipy modules crtiv uses, then crtiv, timing each step;
    then :func:`probe`."""
    clock = time.perf_counter
    t0 = clock()
    import numpy  # noqa: F401

    t1 = clock()
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    import scipy.stats  # noqa: F401

    t2 = clock()
    import crtiv  # noqa: F401
    import crtiv.cli  # noqa: F401

    t3 = clock()
    times = {"numpy_import_s": t1 - t0, "scipy_import_s": t2 - t1, "crtiv_import_s": t3 - t2}
    return {**times, "probe_s": probe()[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("imports")
    run = sub.add_parser("run")
    run.add_argument("--trace", type=int, choices=(0, 1), required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--spans", default=None)
    run.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "imports":
        print(json.dumps(import_times()))
        return 0
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
    result, tracer = run_main(cli_args, bool(args.trace))
    if tracer is not None and args.spans:
        tracer.write_spans(args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
