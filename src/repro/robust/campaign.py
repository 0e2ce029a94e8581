"""Seeded robustness campaigns: one seed rule, one runner, one reproducer.

Three campaigns check the paper's promise -- an exact optimum on a
unichain SYS chain, served as a table -- each breaking a different part
of the pipeline: ``fuzz`` (:mod:`repro.robust.fuzz`, hostile models),
``certify`` (:mod:`repro.certify.corpus`, corrupted policies) and
``chaos`` (:mod:`repro.serve.chaos`, a faulty serving runtime). Each of
those modules holds one ``case(seed, **params)`` that returns a
JSON-ready record with an ``outcome`` and a list of ``violations``.

A run covers the seeds ``base .. base + count - 1`` (:func:`seeds`),
where ``base`` is ``--base-seed`` or the CRC-32 of
``--seed-from-run-id``: nightly runs drift while any night replays. An
exception that escapes a case is a violation too. With ``--out DIR``
each case with a violation writes ``DIR/<campaign>-<seed>.json``: the
campaign, seed, params, record and the command that replays it::

    python -m repro.robust.campaign fuzz --count 200
    python -m repro.robust.campaign certify --capacity 250 --count 3
    python -m repro.robust.campaign chaos --seed-from-run-id "$RUN_ID" \\
        --count 5 --duration 40000 --out failures/

The command prints one JSON summary and exits 1 on any violation.
"""

from __future__ import annotations

import argparse
import importlib
import json
import zlib
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

#: Campaign name -> the module holding its ``case`` function.
CAMPAIGNS = {
    "fuzz": "repro.robust.fuzz",
    "certify": "repro.certify.corpus",
    "chaos": "repro.serve.chaos",
}


def seeds(count: int, base_seed: int = 0,
          run_id: "Optional[str]" = None) -> range:
    """The *count* consecutive seeds of one run, from *base_seed* or,
    when a run id is given, from its CRC-32."""
    if run_id is not None:
        base_seed = zlib.crc32(str(run_id).encode()) & 0x7FFFFFFF
    return range(base_seed, base_seed + count)


def run(campaign: str, count: int = 1, base_seed: int = 0,
        run_id: "Optional[str]" = None, out: "Optional[Path]" = None,
        **params: Any) -> "Dict[str, Any]":
    """Run *campaign*'s case with *params* at each of :func:`seeds`,
    writing a reproducer to *out* for every case with a violation."""
    case = importlib.import_module(CAMPAIGNS[campaign]).case
    span = seeds(count, base_seed, run_id)
    outcomes: "Dict[str, int]" = {}
    failures = []
    for seed in span:
        try:
            record = case(seed, **params)
        except Exception as exc:  # noqa: BLE001 - an escape IS a violation
            record = {"outcome": "escaped", "violations": [
                f"{type(exc).__name__} escaped the case: {exc}"]}
        outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
        if not record["violations"]:
            continue
        failures.append({"seed": seed, "violations": record["violations"]})
        if out is not None:
            replay = [f"python -m repro.robust.campaign {campaign}",
                      f"--base-seed {seed} --count 1"] + [
                f"--{name} {value}" for name, value in sorted(params.items())]
            Path(out).mkdir(parents=True, exist_ok=True)
            (Path(out) / f"{campaign}-{seed}.json").write_text(json.dumps(
                {"campaign": campaign, "seed": seed, "params": params,
                 "replay": " ".join(replay), "record": record},
                indent=2, sort_keys=True) + "\n")
    return {"campaign": campaign, "base_seed": span.start, "count": len(span),
            "params": params, "outcomes": outcomes, "failures": failures}


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--count", type=int, default=1,
                        help="number of consecutive seeds (default: 1)")
    start = common.add_mutually_exclusive_group()
    start.add_argument("--base-seed", type=int, default=0,
                       help="first seed (default: 0)")
    start.add_argument("--seed-from-run-id", dest="run_id", metavar="ID",
                       help="start at the CRC-32 of ID (a CI run id)")
    common.add_argument("--out", type=Path, metavar="DIR",
                        help="write a reproducer here for every case with "
                             "a violation")
    parser = argparse.ArgumentParser(prog="python -m repro.robust.campaign")
    sub = parser.add_subparsers(dest="campaign", required=True)
    sub.add_parser("fuzz", parents=[common])
    # A param reaches the case (and the reproducer) only when given, so
    # its default lives once, in the case's signature.
    sub.add_parser("certify", parents=[common]).add_argument(
        "--capacity", type=int, default=argparse.SUPPRESS,
        help="queue capacity Q of the paper system (default: 3)")
    sub.add_parser("chaos", parents=[common]).add_argument(
        "--duration", type=float, default=argparse.SUPPRESS,
        help="virtual seconds per soak (default: 20000)")
    args = vars(parser.parse_args(argv))
    params = {name: args[name] for name in ("capacity", "duration")
              if name in args}
    summary = run(args["campaign"], args["count"], args["base_seed"],
                  args["run_id"], args["out"], **params)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 1 if summary["failures"] else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
