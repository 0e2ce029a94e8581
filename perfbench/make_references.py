"""Recompute perfbench/references.json (a few minutes, run once).

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent)]

from perfbench import references  # noqa: E402

BUILDERS = {
    "paper-serve": references.paper_serve,
    "constrained-1k": references.constrained,
    "scale-100k": references.scale,
    "farm-118k": references.farm,
}


def main() -> int:
    doc = {}
    for name, build in BUILDERS.items():
        started = time.perf_counter()
        doc[name] = build()
        print(f"{name}: {time.perf_counter() - started:.1f} s", flush=True)
    path = HERE / "references.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
