#!/usr/bin/env python
"""Validate a ``repro serve`` metrics endpoint against the catalogue.

Fetches both expositions from a running (or ``--spawn``-ed) server and
cross-checks them against the authoritative catalogue — the
:class:`repro.serve.server.ServeMetrics` registry itself
(``registry.describe()``), the same object documented in
docs/OBSERVABILITY.md:

* **Prometheus text** (``/metrics?format=prometheus``): every
  registered family present with matching ``# TYPE``; every sample
  name accounted for (``<name>`` or, for histograms,
  ``<name>_bucket``/``_sum``/``_count``); label sets exactly the
  declared ones (plus ``le`` on bucket series); bucket counts
  cumulative non-decreasing with ``le="+Inf"`` equal to ``_count``;
  no stray or duplicate series.
* **JSON snapshot** (``/metrics``): schema tag, required keys, stage
  names drawn from the catalogue's stage label series, non-negative
  counts, and p50 <= p99 <= max per histogram row.
* **One request trace** (``--spawn`` only): the first warm-up job's
  ``/v1/trace/<request_id>`` document has the request-trace schema,
  the server and worker processes, the ``admission``, ``job_wait``,
  ``queue`` and ``worker`` spans and the worker's ``execute`` span,
  and its waiter spans cover at least 90% of the answer's
  ``latency_ms``.

Exit 0 when every check passes; prints each failure and exits 1
otherwise.

Usage::

    PYTHONPATH=src python tools/check_metrics.py --spawn
    PYTHONPATH=src python tools/check_metrics.py --host H --port P
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.serve.client import (get_metrics,  # noqa: E402
                                get_metrics_text, get_trace)
from repro.serve.server import STAGES, ServeMetrics  # noqa: E402

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_exposition(text: str) -> tuple[dict, list, list]:
    """Parse the text format into (families, samples, errors)."""
    families: dict[str, dict] = {}
    samples: list[dict] = []
    errors: list[str] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            families.setdefault(name, {})["help"] = help_text
        elif line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            families.setdefault(name, {})["type"] = kind.strip()
        elif line.startswith("#"):
            continue
        else:
            match = _SAMPLE.match(line)
            if not match:
                errors.append(f"line {lineno}: unparseable sample "
                              f"{line!r}")
                continue
            labels = dict(_LABEL.findall(match.group("labels") or ""))
            try:
                value = float(match.group("value"))
            except ValueError:
                if match.group("value") not in ("+Inf", "-Inf", "NaN"):
                    errors.append(f"line {lineno}: bad value "
                                  f"{match.group('value')!r}")
                    continue
                value = float(match.group("value").replace("Inf",
                                                           "inf"))
            samples.append({"name": match.group("name"),
                            "labels": labels, "value": value,
                            "line": lineno})
    return families, samples, errors


def check_prometheus(text: str, catalogue: list[dict]) -> list[str]:
    """All catalogue violations in one exposition; empty = pass."""
    failures: list[str] = []
    families, samples, errors = parse_exposition(text)
    failures.extend(errors)
    by_name = {row["name"]: row for row in catalogue}

    for row in catalogue:
        seen = families.get(row["name"])
        if seen is None:
            failures.append(f"{row['name']}: missing HELP/TYPE header")
        elif seen.get("type") != row["type"]:
            failures.append(
                f"{row['name']}: TYPE {seen.get('type')!r} != "
                f"catalogue {row['type']!r}")
    for name in families:
        if name not in by_name:
            failures.append(f"{name}: exposed but not in catalogue")

    def family_of(sample_name: str):
        if sample_name in by_name:
            return by_name[sample_name], ""
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name.removesuffix(suffix)
            if sample_name.endswith(suffix) and base in by_name:
                return by_name[base], suffix
        return None, ""

    series: dict[tuple, int] = {}
    hist: dict[tuple, list] = {}
    for sample in samples:
        row, suffix = family_of(sample["name"])
        if row is None:
            failures.append(f"line {sample['line']}: sample "
                            f"{sample['name']} matches no family")
            continue
        if suffix and row["type"] != "histogram":
            failures.append(f"line {sample['line']}: {sample['name']} "
                            f"has a histogram suffix but "
                            f"{row['name']} is a {row['type']}")
            continue
        expected = set(row["labels"])
        if suffix == "_bucket":
            expected = expected | {"le"}
        got = set(sample["labels"])
        if got != expected:
            failures.append(
                f"line {sample['line']}: {sample['name']} labels "
                f"{sorted(got)} != declared {sorted(expected)}")
        key = (sample["name"],
               tuple(sorted(sample["labels"].items())))
        series[key] = series.get(key, 0) + 1
        if suffix == "_bucket":
            group = tuple(sorted((k, v)
                                 for k, v in sample["labels"].items()
                                 if k != "le"))
            hist.setdefault((row["name"], group), []).append(
                (sample["labels"].get("le"), sample["value"]))
        if row["type"] == "counter" and not suffix and \
                sample["value"] < 0:
            failures.append(f"{sample['name']}: negative counter "
                            f"{sample['value']}")
    for (name, labels), count in series.items():
        if count > 1:
            failures.append(f"{name}{dict(labels)}: duplicate series "
                            f"({count} samples)")

    counts = {(row_name, grp): s["value"]
              for s in samples
              for row_name, grp in [((s["name"].removesuffix("_count")),
                                     tuple(sorted(s["labels"].items())))]
              if s["name"].endswith("_count")}
    for (name, group), buckets in hist.items():
        def le_key(pair):
            le = pair[0]
            return float("inf") if le == "+Inf" else float(le)
        ordered = sorted(buckets, key=le_key)
        values = [v for _, v in ordered]
        if any(b > a for a, b in zip(values[1:], values)):
            failures.append(f"{name}_bucket{dict(group)}: bucket "
                            f"counts not cumulative: {values}")
        if ordered and ordered[-1][0] != "+Inf":
            failures.append(f"{name}_bucket{dict(group)}: no le=\"+Inf\" "
                            f"bucket")
        total = counts.get((name, group))
        if total is not None and ordered and \
                ordered[-1][1] != total:
            failures.append(
                f"{name}{dict(group)}: +Inf bucket {ordered[-1][1]} "
                f"!= _count {total}")
    return failures


def check_snapshot(snapshot: dict) -> list[str]:
    """JSON snapshot structure checks; empty = pass."""
    failures: list[str] = []
    if snapshot.get("schema") != "repro-serve-metrics-v1":
        failures.append(f"snapshot schema {snapshot.get('schema')!r}")
    for key in ("uptime_s", "requests", "coalesce_hits", "cas",
                "jobs", "queue", "workers", "latency_ms", "stages",
                "traces"):
        if key not in snapshot:
            failures.append(f"snapshot missing key {key!r}")
    if failures:
        return failures
    if snapshot["uptime_s"] < 0:
        failures.append(f"negative uptime {snapshot['uptime_s']}")
    for stage in snapshot["stages"]:
        if stage not in STAGES:
            failures.append(f"snapshot stage {stage!r} not in "
                            f"catalogue stages {list(STAGES)}")
    rows = list(snapshot["stages"].values()) + [snapshot["latency_ms"]]
    for row in rows:
        if not (0 <= row["p50"] <= row["p99"] <= row["max"]):
            failures.append(f"histogram row out of order: {row}")
        if row["count"] < 0:
            failures.append(f"negative count: {row}")
    for section, fields in (("cas", ("hits", "misses", "stores")),
                            ("jobs", ("executed", "errors",
                                      "timeouts", "shed")),
                            ("queue", ("depth", "limit")),
                            ("workers", ("count", "restarts"))):
        for name in fields:
            value = snapshot[section].get(name)
            if not isinstance(value, (int, float)) or value < 0:
                failures.append(
                    f"snapshot {section}.{name} = {value!r}")
    for label_row in snapshot["requests"].get("by_label", []):
        if set(label_row) != {"workload", "tier", "status", "count"}:
            failures.append(f"by_label row keys {sorted(label_row)}")
    return failures


def check_trace(trace: dict, latency_ms: float) -> list[str]:
    """One job's request-trace document against its answer's
    ``latency_ms``; empty = pass."""
    failures: list[str] = []
    schema = trace.get("otherData", {}).get("schema")
    if schema != "repro-request-trace-v1":
        failures.append(f"trace schema {schema!r}")
    events = trace.get("traceEvents", [])
    pids = {event.get("pid") for event in events}
    if pids != {1, 2}:
        failures.append(f"trace pids {sorted(pids)} != [1, 2]")
    spans = [event for event in events if event.get("ph") == "X"]
    names = {event["name"] for event in spans}
    for name in ("admission", "job_wait", "queue", "worker"):
        if name not in names:
            failures.append(f"trace has no {name!r} span")
    if not any(event["pid"] == 2 and event["name"] == "execute"
               for event in spans):
        failures.append("trace has no worker-side 'execute' span")
    covered_us, reach = 0, 0
    for start, end in sorted((event["ts"], event["ts"] + event["dur"])
                             for event in spans
                             if event["pid"] == 1 and event["tid"] == 1):
        covered_us += max(0, end - max(start, reach))
        reach = max(reach, end)
    if covered_us < 0.9 * latency_ms * 1e3:
        failures.append(
            f"waiter spans cover {covered_us / 1e3:.3f} of "
            f"{latency_ms:.3f} ms latency (< 90%)")
    return failures


def spawn_server(store_dir: str) -> tuple:
    cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
           "--workers", "2", "--cache-dir", store_dir, "--debug"]
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(Path(__file__).resolve().parent.parent
                             / "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=env)
    line = proc.stdout.readline()
    try:
        address = line.split("listening on ")[1].split()[0]
        host, port = address.rsplit(":", 1)
        return proc, host, int(port)
    except (IndexError, ValueError):
        proc.terminate()
        raise SystemExit(f"could not parse server banner: {line!r}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8787)
    parser.add_argument("--spawn", action="store_true",
                        help="start a repro serve subprocess on a "
                             "free port, exercise it briefly, and "
                             "check its expositions")
    args = parser.parse_args()

    proc = None
    host, port = args.host, args.port
    failures: list[str] = []
    if args.spawn:
        import tempfile
        store_dir = tempfile.mkdtemp(prefix="repro-serve-cas-")
        proc, host, port = spawn_server(store_dir)
        # A little traffic so label series and histograms are
        # populated, not just registered.
        from repro.serve.client import ServeHTTPError, submit
        try:
            first = submit(host, port, {"kind": "sleep", "seconds": 0.01})
            submit(host, port, {"kind": "sleep", "seconds": 0.01})
            trace = get_trace(host, port, first["request_id"])
            failures += check_trace(trace, first["latency_ms"])
        except (OSError, ServeHTTPError) as exc:
            failures.append(f"warm-up submit or trace fetch failed: "
                            f"{exc}")
    try:
        text = get_metrics_text(host, port)
        snapshot = get_metrics(host, port)
    except OSError as exc:
        print(f"check_metrics: cannot reach {host}:{port}: {exc}",
              file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            proc.terminate()
            proc.wait(timeout=10)

    catalogue = ServeMetrics().registry.describe()
    failures += check_prometheus(text, catalogue)
    failures += check_snapshot(snapshot)
    if failures:
        for failure in failures:
            print(f"check_metrics: FAIL — {failure}", file=sys.stderr)
        return 1
    _, samples, _ = parse_exposition(text)
    names = sorted({sample["name"] for sample in samples})
    print(f"check_metrics: PASS — {len(catalogue)} families, "
          f"{len(names)} sample names, snapshot OK "
          f"({snapshot['requests']['total']} requests observed)"
          + (", request trace OK" if args.spawn else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
