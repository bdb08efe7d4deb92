#!/usr/bin/env python
"""Prefetch-effectiveness report: telemetry over the quick suite.

Runs ``plain`` and ``auto`` with telemetry enabled for every quick-suite
benchmark on every Table 1 machine and archives the per-prefetch
outcome counts, accuracy/timeliness ratios, and stall-cycle attribution
under ``benchmarks/results/telemetry_effectiveness.{txt,json}``.

``--check-identity`` additionally asserts the telemetry contract: for a
sample of (workload, machine) pairs, cycles with telemetry on equal
cycles with telemetry off, under both engine paths.

Usage::

    PYTHONPATH=src python tools/telemetry_report.py --quick
    PYTHONPATH=src python tools/telemetry_report.py --quick --check-identity
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

RESULTS_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / \
    "results"


def check_identity(small: bool) -> None:
    """Assert telemetry never changes measured cycles (both engines)."""
    from repro.bench.runner import run_defaults, run_variant
    from repro.envcfg import SimOptions
    from repro.machine.configs import A53, HASWELL
    from repro.workloads import IntegerSort, hj2

    def make_pairs():
        return [(IntegerSort(num_keys=2_000, num_buckets=1 << 16)
                 if small else IntegerSort(), HASWELL),
                (hj2(num_probes=2_000, num_buckets=1 << 13)
                 if small else hj2(), A53)]

    for variant in ("plain", "auto"):
        for fastpath in (False, True):
            cycles = {}
            for telemetry in (False, True):
                with run_defaults(SimOptions(fastpath=fastpath,
                                             telemetry=telemetry)):
                    for workload, machine in make_pairs():
                        result = run_variant(workload, variant, machine,
                                             cache=False)
                        key = (workload.name, machine.name)
                        if telemetry:
                            assert cycles[key] == result.cycles, (
                                f"telemetry changed cycles for {key} "
                                f"{variant} fastpath={fastpath}: "
                                f"{cycles[key]} != {result.cycles}")
                            assert result.telemetry is not None
                        else:
                            cycles[key] = result.cycles
                            assert result.telemetry is None
    print("identity check passed: telemetry on/off cycles bit-identical "
          "under both engine paths")


def main(argv=None) -> int:
    from repro.cli import at_least_one

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down workloads (CI smoke mode)")
    parser.add_argument("--jobs", type=at_least_one, default=None,
                        help="worker processes for independent runs "
                             "(>= 1; default: the available CPUs)")
    parser.add_argument("--check-identity", action="store_true",
                        help="assert telemetry-on cycles == telemetry-off")
    parser.add_argument("--output-dir", default=str(RESULTS_DIR),
                        help="directory for the .txt/.json reports")
    args = parser.parse_args(argv)

    if args.check_identity:
        check_identity(small=args.quick)

    from repro.machine.configs import ALL_SYSTEMS
    from repro.telemetry.report import (effectiveness_rows,
                                        render_effectiveness, report_dict)
    from repro.workloads import paper_benchmarks

    rows = effectiveness_rows(paper_benchmarks(small=args.quick),
                              machines=ALL_SYSTEMS, jobs=args.jobs)
    title = ("Prefetch effectiveness (auto vs plain, telemetry"
             + (", quick suite)" if args.quick else ")"))
    table = render_effectiveness(rows, title=title)
    report = report_dict(rows)
    report["quick"] = args.quick

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "telemetry_effectiveness.txt").write_text(table)
    (out_dir / "telemetry_effectiveness.json").write_text(
        json.dumps(report, indent=2) + "\n")
    print(table)
    print(f"wrote {out_dir / 'telemetry_effectiveness.txt'} and .json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
