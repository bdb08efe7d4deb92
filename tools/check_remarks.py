#!/usr/bin/env python
"""Schema and determinism gate for the optimization-remarks stream.

Builds every quick-suite workload's ``auto`` variant with remarks
collected — twice, independently — and asserts the remark contract:

* every remark serialises to a dict that passes
  :func:`repro.remarks.validate_remark_dict` (unknown kinds or names
  are hard failures — extend ``KNOWN_REMARKS`` when adding one);
* the ``repro-remarks-v1`` stream round-trips byte-identically
  (emit → parse → re-emit);
* two independent compilations produce identical canonical streams
  (deterministic ordering; only ``wall_us`` may differ).

With ``--artifact FILE`` it additionally validates a
``repro-explain-remarks-v1`` file written by
``repro explain --remarks-out`` (as CI does) against the same rules.

Usage::

    PYTHONPATH=src python tools/check_remarks.py
    PYTHONPATH=src python tools/check_remarks.py --artifact remarks.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def collect_streams(small: bool = True) -> dict[str, str]:
    """workload name -> remarks stream for the quick-suite auto builds."""
    from repro.remarks.join import collect_remarks
    from repro.remarks.serialize import dumps_stream
    from repro.workloads import paper_benchmarks

    streams = {}
    for workload in paper_benchmarks(small=small):
        _module, emitter = collect_remarks(workload, "auto")
        streams[workload.name] = dumps_stream(emitter.records)
    return streams


def check_stream(name: str, stream: str) -> int:
    """Validate + round-trip one stream; returns its remark count."""
    from repro.remarks.serialize import dumps_stream, parse_stream

    remarks = parse_stream(stream)  # validates schema line by line
    again = dumps_stream(remarks)
    assert again == stream, (
        f"{name}: remark stream does not round-trip byte-identically")
    return len(remarks)


def check_artifact(path: str) -> None:
    """Validate a ``repro explain --remarks-out`` artifact file."""
    with open(path) as handle:
        artifact = json.load(handle)
    schema = artifact.get("schema")
    assert schema == "repro-explain-remarks-v1", (
        f"unexpected artifact schema {schema!r}")
    for name, stream in artifact["workloads"].items():
        count = check_stream(f"artifact:{name}", stream)
        print(f"  artifact {name}: {count} remarks ok")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--artifact", metavar="FILE",
                        help="also validate a --remarks-out JSON file")
    parser.add_argument("--full", action="store_true",
                        help="full-size workloads (default: quick)")
    args = parser.parse_args(argv)

    from repro.remarks.serialize import canonical_stream

    first = collect_streams(small=not args.full)
    second = collect_streams(small=not args.full)
    failures = 0
    for name, stream in first.items():
        count = check_stream(name, stream)
        a = canonical_stream(stream)
        b = canonical_stream(second[name])
        if a != b:
            print(f"FAIL {name}: remark stream differs between two "
                  "independent compilations", file=sys.stderr)
            failures += 1
            continue
        print(f"  {name}: {count} remarks, deterministic, "
              "round-trips")
    if args.artifact:
        check_artifact(args.artifact)
    if failures:
        return 1
    print(f"ok: {len(first)} workloads checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
