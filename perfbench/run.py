"""Run the config -> certified policy -> served decision benchmark.

    python3 perfbench/run.py --workload paper-serve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a fresh child interpreter (worker.py), one at a
time. Before it, SETUP_PROBES more fresh interpreters only set up and
exit: ``setup_s`` is the median of their set-up times in calibrated
seconds (see calibrate.py), scaled by the median of the calibration
kernel times the probes measure right after their set-ups. Children
get single-threaded BLAS and a fixed hash seed.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The full record (manifest, sample counts,
error rates, layer table) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.calibrate import REFERENCE_S  # noqa: E402 (stdlib only)

OUT = HERE / "out"
WORKLOADS = ("paper-serve", "constrained-1k", "scale-100k", "farm-118k")
#: The end-to-end metrics of the JSON line: the ones every workload
#: reports. The decision metrics of paper-serve and scale-100k are
#: printed and recorded beside them.
E2E = ("setup_s", "time_to_policy_s", "peak_rss_mb")
#: Extra fresh interpreters per untraced run that only set up.
SETUP_PROBES = 3
#: A threaded BLAS burns 1.5-2x CPU on the dense tier for no steady
#: wall-clock gain on a 2-core host, and adds scheduling noise.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
#: Every child is killed at this deadline (the whole run must end in 180 s).
RUN_DEADLINE_S = 170.0


class ChildFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(role: str, args, workload: str, deadline: float):
    """Start one worker; returns (seconds until READY, rest of stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        killer.join()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise ChildFailed(f"{role} worker for {workload} exited with code "
                          f"{code}")
    return setup_s, rest


def measure_setup(args, workload: str, deadline: float) -> dict:
    """Median set-up time over SETUP_PROBES interpreters, calibrated.

    One factor serves all probes: the kernel's time swings by up to
    1.7x within a second, faster than a ~1 s set-up does, so a single
    probe's kernel time would add more noise than it removes; their
    median follows the host's speed over the run.
    """
    raw, kernel = [], []
    for _ in range(SETUP_PROBES):
        setup_s, rest = run_child("probe", args, workload, deadline)
        line = rest.split()
        if len(line) != 2 or line[0] != "CALIBRATION":
            raise ChildFailed(f"probe for {workload} printed no calibration")
        raw.append(setup_s)
        kernel.append(float(line[1]))
    factor = REFERENCE_S / statistics.median(kernel)
    return {
        "value": statistics.median(raw) * factor, "unit": "s",
        "n": len(raw),
        "statistic": "median set-up time of fresh interpreters, "
                     "calibrated",
        "raw_samples": raw, "raw_median": statistics.median(raw),
        "kernel_s": kernel, "reference_s": REFERENCE_S,
    }


def run_workload(args, workload: str) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setup = None if args.trace else measure_setup(args, workload, deadline)
    main_setup_s, out = run_child("main", args, workload, deadline)
    payload = json.loads(out.strip().splitlines()[-1])
    payload["e2e"]["setup_s"] = setup or {
        "value": main_setup_s, "unit": "s", "n": 1,
        "statistic": "raw set-up time of the traced interpreter",
    }
    payload["main_setup_raw_s"] = main_setup_s
    policies, decisions = payload["policies"], payload["decisions"]
    payload["correct"] = policies["failed"] == 0 and decisions["failed"] == 0
    payload["attempted"] = policies["attempted"] + decisions["attempted"]
    payload["failed"] = policies["failed"] + decisions["failed"]
    OUT.mkdir(parents=True, exist_ok=True)
    record = OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    report(payload, record)
    return payload


def report(payload: dict, record: Path) -> None:
    m = payload["manifest"]
    print(f"== {payload['workload']}  seed {m['seed']}  {m['seconds']:g} s  "
          f"trace {int(m['trace'])}  ({payload['rounds']} rounds in "
          f"{payload['measured_s']:.1f} s)")
    print(f"   git {m['git_sha']}  nproc {m['nproc']}  blas threads "
          f"{m['blas_threads']['OPENBLAS_NUM_THREADS']}  python {m['python']}"
          f"  numpy {m['numpy']}  scipy {m['scipy']}  store {m['store_path']}")
    calibration = payload["calibration"]
    print(f"   calibration: kernel x{calibration['reps']}, median "
          f"{calibration['median_s']:.5f} s "
          f"(reference {calibration['reference_s']} s), n={calibration['n']}")
    for note in payload["notes"]:
        print(f"   note: {note}")
    metrics = {**payload["e2e"], **payload["extra"]}
    for name in (*E2E, *sorted(set(metrics) - set(E2E))):
        metric = metrics[name]
        tail = ""
        if "beyond" in metric:
            tail = f", {metric['beyond']} beyond"
        if "raw_median" in metric:
            tail += f"; raw median {metric['raw_median']:.6g}"
        print(f"   {name:<22} {metric['value']:<14.6g} {metric['unit']:<6} "
              f"{metric['statistic']} of n={metric['n']}{tail}")
    for kind in ("policies", "decisions"):
        outcome = payload[kind]
        print(f"   {kind}: {outcome['failed']} of {outcome['attempted']} "
              f"failed {outcome['reasons'] or ''}")
    if "layers" in payload:
        print("   layer        self_s    share of timed")
        for layer, row in payload["layers"].items():
            print(f"   {layer:<12} {row['self_s']:<9.4f} {row['share']:.1%}")
        for name, metric in payload["per_layer"].items():
            print(f"   {name:<26} {metric['value']:<14.6g} {metric['unit']}")
        overhead = payload["overhead"]
        print(f"   trace overhead: {overhead['statistic']}, traced "
              f"n={overhead['traced_n']}, untraced n={overhead['untraced_n']}"
              + ("; a single pair, so noise" if overhead["single_pair"]
                 else ""))
        print(f"   spans: {payload.get('spans_file')}")
    print(f"   record: {record}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        payloads = [run_workload(args, name) for name in names]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    key = "per_layer" if args.trace else "e2e"

    def metrics_of(payload):
        chosen = payload[key] if args.trace else {n: payload[key][n] for n in E2E}
        return {name: {"value": m["value"], "unit": m["unit"]}
                for name, m in chosen.items()}

    if len(payloads) == 1:
        metrics = metrics_of(payloads[0])
    else:
        metrics = {f"{p['workload']}/{name}": value for p in payloads
                   for name, value in metrics_of(p).items()}
    print(json.dumps({
        "correct": all(p["correct"] for p in payloads),
        "attempted": sum(p["attempted"] for p in payloads),
        "failed": sum(p["failed"] for p in payloads),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
