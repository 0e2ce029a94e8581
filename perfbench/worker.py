"""Child-process side of the pipeline benchmark; started by run.py.

Role ``probe`` sets the workload up, prints ``READY``, times the
calibration kernel, prints ``CALIBRATION <seconds>`` and exits: one set-up time sample and the host's speed right after it, in
the same process. Role ``main`` sets up, prints ``READY``, measures for
the requested seconds and prints one JSON payload line.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_KEYS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Calibration kernel calls per probe (see calibrate.py).
SETUP_KERNEL_REPS = 9


def git_sha(root: Path) -> Optional[str]:
    """The checked-out commit, read from ``.git`` without running git;
    ``None`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args, store: Path) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "git_sha": git_sha(ROOT),
        "nproc": os.cpu_count(),
        "blas_threads": {key: os.environ.get(key) for key in BLAS_KEYS},
        "python_hash_seed": os.environ.get("PYTHONHASHSEED"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "store_path": str(store.relative_to(ROOT)),
        "store_note": "inside the checkout: the benchmark writes nowhere "
                      "else, so the store's fsyncs hit the checkout's disk",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--role", choices=("probe", "main"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    from perfbench import calibrate
    from perfbench import workloads  # imports numpy, scipy and repro

    workload = workloads.make(args.workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    store = OUT / f"store-{args.workload}-{os.getpid()}"
    try:
        workload.setup(store)
        print("READY", flush=True)
        if args.role == "probe":
            calibrator = calibrate.Calibrator(SETUP_KERNEL_REPS)
            print(f"CALIBRATION {calibrator.measure()!r}", flush=True)
            return 0
        # Everything alive after set-up lives for the whole run; freezing
        # it keeps each sample's gc.collect() from rescanning it.
        gc.freeze()
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        payload = workloads.measure(workload, args.seconds,
                                    trace=bool(args.trace),
                                    spans_path=spans if args.trace else None)
    finally:
        shutil.rmtree(store, ignore_errors=True)
    payload["e2e"]["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "unit": "MB", "n": 1, "statistic": "ru_maxrss of this process",
    }
    payload["manifest"] = manifest(args, store)
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
