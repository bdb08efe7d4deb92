"""Insert the archived benchmark tables into EXPERIMENTS.md.

Run after ``pytest benchmarks/ --benchmark-only``; replaces each
``MEASURED_*`` placeholder (or a previously inserted tagged block) with
the corresponding table from ``benchmarks/results/``.  Idempotent:
re-running refreshes the blocks in place.
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
TARGET = ROOT / "EXPERIMENTS.md"

#: placeholder -> result files (concatenated in order).
BLOCKS = {
    "MEASURED_FIG2": ["fig2_prefetch_schemes.txt"],
    "MEASURED_FIG4": ["fig4a_haswell.txt", "fig4b_a57.txt",
                      "fig4c_a53.txt", "fig4d_xeon_phi.txt"],
    "MEASURED_FIG5": ["fig5_stride_addition.txt"],
    "MEASURED_FIG6": ["fig6_lookahead.txt"],
    "MEASURED_FIG7": ["fig7_stagger_depth.txt"],
    "MEASURED_FIG8": ["fig8_instruction_overhead.txt"],
    "MEASURED_FIG9": ["fig9_bandwidth.txt"],
    "MEASURED_FIG10": ["fig10_hugepages.txt"],
    "MEASURED_ABLATIONS": ["ablation_scheduling.txt",
                           "ablation_guard_cost.txt"],
}


def render(tag: str) -> str:
    chunks = []
    for name in BLOCKS[tag]:
        path = RESULTS / name
        if not path.exists():
            chunks.append(f"(not yet measured: {name})")
        else:
            chunks.append(path.read_text().rstrip())
    body = "\n\n".join(chunks)
    return f"```text meas:{tag}\n{body}\n```"


def main() -> int:
    text = TARGET.read_text()
    for tag in BLOCKS:
        replacement = render(tag)
        tagged = re.compile(
            rf"```text meas:{tag}\n.*?\n```", re.S)
        if tagged.search(text):
            text = tagged.sub(replacement.replace("\\", r"\\"), text)
        elif re.search(rf"^{tag}$", text, re.M):
            text = re.sub(rf"^{tag}$", replacement.replace("\\", r"\\"),
                          text, flags=re.M)
        else:
            print(f"warning: no slot for {tag} in EXPERIMENTS.md",
                  file=sys.stderr)
    TARGET.write_text(text)
    print(f"updated {TARGET}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
