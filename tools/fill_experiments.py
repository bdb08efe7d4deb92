"""Insert the archived benchmark tables into EXPERIMENTS.md.

Run after ``pytest benchmarks/ --benchmark-only``; replaces each
``MEASURED_*`` placeholder (or a previously inserted tagged block) with
the archived tables of the named :data:`repro.bench.figures.FIGURES`
entries, from ``benchmarks/results/``.  Idempotent: re-running
refreshes the blocks in place.
"""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.bench.figures import FIGURES  # noqa: E402

RESULTS = ROOT / "benchmarks" / "results"
TARGET = ROOT / "EXPERIMENTS.md"

#: placeholder -> catalogue entries (their tables concatenated in order).
BLOCKS = {
    "MEASURED_FIG2": ["fig2"],
    "MEASURED_FIG4": ["fig4a", "fig4b", "fig4c", "fig4d"],
    "MEASURED_FIG5": ["fig5"],
    "MEASURED_FIG6": ["fig6"],
    "MEASURED_FIG7": ["fig7"],
    "MEASURED_FIG8": ["fig8"],
    "MEASURED_FIG9": ["fig9"],
    "MEASURED_FIG10": ["fig10"],
    "MEASURED_ABLATIONS": ["ablation_scheduling", "ablation_guard_cost"],
}


def render(tag: str) -> str:
    chunks = []
    for name in BLOCKS[tag]:
        path = RESULTS / FIGURES[name].archive
        if not path.exists():
            chunks.append(f"(not yet measured: {path.name})")
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
