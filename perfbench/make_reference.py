"""Record the statistical reference that ``simulate`` reports are checked against.

For each simulate workload, runs ``REFERENCE_STUDIES`` independent studies of
the workload's size (seeds 10000, 10001, ...; the benchmark's own seeds are
small) through ``crtiv.cli.main`` and stores, per estimator variant, the mean
and standard deviation over studies of ``bias``, ``coverage`` and
``mean_se``.  Run it at a commit whose numbers are trusted::

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import csv
import json
import statistics
import sys
import tempfile
from pathlib import Path

import workloads as wl

REFERENCE_STUDIES = 20
FIRST_SEED = 10_000


def main() -> int:
    from crtiv import cli

    reference = {}
    for workload in wl.WORKLOADS.values():
        if workload.command != "simulate":
            continue
        values: dict[str, dict[str, list[float]]] = {}
        with tempfile.TemporaryDirectory(dir=wl.HERE.parent) as tmp:
            inputs = wl.prepare_inputs(workload, FIRST_SEED, Path(tmp))
            for k in range(REFERENCE_STUDIES):
                outdir = Path(tmp) / f"study{k}"
                if cli.main(wl.cli_args(workload, inputs, FIRST_SEED + k, outdir)) != 0:
                    raise SystemExit(f"{workload.name}: study {k} failed")
                with open(outdir / "report.csv", newline="", encoding="utf-8") as handle:
                    for row in csv.DictReader(handle):
                        fields = values.setdefault(wl.variant_label(row), {f: [] for f in wl.REPORT_FIELDS})
                        for f in wl.REPORT_FIELDS:
                            fields[f].append(float(row[f]))
        reference[workload.name] = {
            "scenario": workload.scenario,
            "replicates": workload.replicates,
            "studies": REFERENCE_STUDIES,
            "first_seed": FIRST_SEED,
            "variants": {
                label: {f: [statistics.fmean(v), statistics.stdev(v)] for f, v in fields.items()}
                for label, fields in values.items()
            },
        }
        print(f"{workload.name}: {REFERENCE_STUDIES} studies recorded", file=sys.stderr)
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
