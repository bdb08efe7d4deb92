#!/usr/bin/env python3
"""Compare two sets of benchmark runs by the rule perf/README.md states.

    python3 perf/compare.py PARENT_DIR CHANGE_DIR
    python3 perf/compare.py --self-check RUNS_A RUNS_B

Each directory holds the ``--out`` JSON files of ``perf/run.py`` runs,
ten or more alternating parent/change pairs.  Runs are paired by
workload, seed and order among that seed's runs; a run without a
partner is listed and left out.  Per workload and end-to-end metric it
prints both sides' median and quartiles, the share of pairs the change
wins, and the first verdict that applies, with the bounds and
directions of the repository's ``BENCHMARK.json``:

* ``regressed`` -- the change's median is worse than the parent's by
  more than the bound;
* ``unresolved`` -- a side's interquartile range, as a share of its
  median, exceeds the bound, and not every change run beats every
  parent run; or the change looks better but there are fewer than ten
  pairs;
* ``improved`` -- the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
* ``unchanged`` -- otherwise.

It also diffs the per-layer tables of the traced runs, and checks that
every digest and modelled speedup of a seed is the same on both sides.
It exits 1 on a regression or a modelled result that differs.
``--self-check`` takes two run sets of one commit and exits 1 unless
they agree within the bounds -- for every (workload, metric) pair both
spreads are within the bound and the medians are within the bound of
each other, either way -- and every digest and modelled speedup is
identical between runs of the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent
                    / "BENCHMARK.json").read_text())
#: Result fields that must repeat exactly for one seed.
EXACT = ("sim_digest", "ir_digest", "result_digest", "auto_speedup_gmean")
#: Pairs needed before a change can read ``improved``.
MIN_PAIRS = 10


def load_runs(directory: str) -> list[dict]:
    """Every run in the directory's result files, in file-name order."""
    runs = []
    for path in sorted(Path(directory).glob("*.json")):
        runs.extend(json.loads(path.read_text())["runs"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Compare one metric over paired runs (``parent[i]`` with
    ``change[i]``)."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    win = wins / len(pairs) if pairs else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    worse = sign * (cm - pm) / abs(pm) if pm else 0.0
    beats_all = all(sign * (p - c) > 0 for p in parent for c in change)
    better_by_iqr = sign * (pm - cm) > p3 - p1
    if len(pairs) < 2:
        outcome = "unresolved"
    elif worse > bound:
        outcome = "regressed"
    elif spread > bound and not beats_all:
        outcome = "unresolved"
    elif win >= 0.9 and better_by_iqr:
        outcome = ("improved" if len(pairs) >= MIN_PAIRS
                   else "unresolved")
    else:
        outcome = "unchanged"
    return {"parent": (p1, pm, p3), "change": (c1, cm, c3), "win": win,
            "pairs": len(pairs), "spread": spread, "worse": worse,
            "verdict": outcome}


def pair_runs(parent_runs: list[dict], change_runs: list[dict]
              ) -> tuple[list, list]:
    """Untraced runs paired by (workload, seed, order among that seed's
    runs), and the runs left without a partner."""
    def keyed(runs):
        out, seen = {}, {}
        for run in runs:
            if run["trace"]:
                continue
            ident = (run["workload"], run["seed"])
            order = seen[ident] = seen.get(ident, -1) + 1
            out[ident + (order,)] = run
        return out

    parent, change = keyed(parent_runs), keyed(change_runs)
    pairs = [(parent[k], change[k]) for k in sorted(parent.keys()
                                                      & change.keys())]
    alone = ([("parent",) + k
              for k in sorted(parent.keys() - change.keys())]
             + [("change",) + k
                for k in sorted(change.keys() - parent.keys())])
    return pairs, alone


def compare(pairs: list) -> list[dict]:
    """One row per (workload, end-to-end metric) present on both sides
    of the pairs."""
    rows = []
    for workload in sorted({p["workload"] for p, _ in pairs}):
        chosen = [(p, c) for p, c in pairs if p["workload"] == workload]
        for metric in BENCH["end_to_end"]:
            name = metric["name"]
            both = [(p["metrics"][name]["value"],
                     c["metrics"][name]["value"]) for p, c in chosen
                    if name in p["metrics"] and name in c["metrics"]]
            if both:
                row = verdict([p for p, _ in both], [c for _, c in both],
                              metric["better"], metric["bound"])
                row.update(workload=workload, metric=name,
                           unit=metric["unit"], bound=metric["bound"])
                rows.append(row)
    return rows


def layer_diff(parent_runs: list[dict], change_runs: list[dict]) -> list:
    """Median self time and share per layer of the traced runs."""
    out = []
    workloads = sorted({r["workload"] for r in parent_runs if r["trace"]}
                       & {r["workload"] for r in change_runs
                          if r["trace"]})
    for workload in workloads:
        def median_of(runs, layer, key):
            return statistics.median(
                r["layers"][layer][key] for r in runs
                if r["workload"] == workload and r["trace"])

        layers = next(r["layers"] for r in parent_runs
                      if r["workload"] == workload and r["trace"])
        for layer in layers:
            out.append((workload, layer,
                        median_of(parent_runs, layer, "self_s"),
                        median_of(change_runs, layer, "self_s"),
                        median_of(parent_runs, layer, "share"),
                        median_of(change_runs, layer, "share")))
    return out


def exact_mismatches(sides: dict[str, list[dict]]) -> list[str]:
    """Digests and modelled results that differ between runs of one
    (workload, seed), on either side or across the two."""
    seen: dict = {}
    problems = []
    for side, runs in sides.items():
        for run in runs:
            for key in EXACT:
                if key not in run["summary"]:
                    continue
                ident = (run["workload"], run["seed"], key)
                value = run["summary"][key]
                first = seen.setdefault(ident, (side, value))
                if first[1] != value:
                    problems.append(
                        f"{ident[0]} seed {ident[1]}: {key} {value} "
                        f"({side}) != {first[1]} ({first[0]})")
    return problems


def disagreements(rows: list[dict]) -> list[str]:
    """Pairs where two run sets of one commit do not agree within the
    bound: a spread beyond it or medians further apart than it, either
    way."""
    return [f"{r['workload']} {r['metric']}: spread {r['spread']:.3f}, "
            f"medians {r['worse']:+.3f} apart (bound {r['bound']})"
            for r in rows
            if r["spread"] > r["bound"] or abs(r["worse"]) > r["bound"]]


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':10s} {'metric':12s} {'parent median [q1, q3]':>34s}"
          f" {'change median [q1, q3]':>34s} {'pairs':>5s} {'win':>5s} "
          f"{'spread':>6s} {'bound':>5s}  verdict")
    for r in rows:
        p1, pm, p3 = r["parent"]
        c1, cm, c3 = r["change"]
        print(f"{r['workload']:10s} {r['metric']:12s} "
              f"{pm:12.5g} [{p1:9.5g}, {p3:9.5g}] "
              f"{cm:12.5g} [{c1:9.5g}, {c3:9.5g}] {r['pairs']:5d} "
              f"{r['win']:5.2f} {r['spread']:6.3f} {r['bound']:5.2f}  "
              f"{r['verdict']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="result directory (parent, or "
                                       "first set with --self-check)")
    parser.add_argument("change", help="result directory (change, or "
                                       "second set with --self-check)")
    parser.add_argument("--self-check", action="store_true",
                        help="both sets are one commit: require agreement "
                             "within the bounds and exact digests")
    args = parser.parse_args(argv)
    parent, change = load_runs(args.parent), load_runs(args.change)
    pairs, alone = pair_runs(parent, change)
    rows = compare(pairs)
    print_rows(rows)
    for side, workload, seed, order in alone:
        print(f"unpaired: {side} run {order + 1} of {workload} seed {seed}")
    diff = layer_diff(parent, change)
    if diff:
        print(f"\n{'workload':10s} {'layer':10s} {'self_s parent':>14s} "
              f"{'self_s change':>14s} {'share parent':>13s} "
              f"{'share change':>13s}")
        for workload, layer, ps, cs, psh, csh in diff:
            print(f"{workload:10s} {layer:10s} {ps:14.4f} {cs:14.4f} "
                  f"{psh:13.3f} {csh:13.3f}")
    mismatches = exact_mismatches({"parent": parent, "change": change})
    if not args.self_check:
        for problem in mismatches:
            print(f"modelled result changed: {problem}")
        regressed = [r for r in rows if r["verdict"] == "regressed"]
        return 1 if mismatches or regressed else 0
    problems = disagreements(rows) + mismatches
    for problem in problems:
        print(f"self-check: {problem}")
    print(f"self-check: {'FAILED' if problems else 'passed'} "
          f"({len(rows)} workload/metric pairs)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
