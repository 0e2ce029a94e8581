"""Command-line interface: ``repro-dpm``.

Subcommands:

- ``solve`` -- optimize the power-management policy for a system
  (weighted or delay-constrained) and print the policy table plus
  analytic metrics.
- ``simulate`` -- run a named policy through the event-driven simulator
  and print (optionally JSON-dump) the measured metrics.
- ``frontier`` -- print the exact deterministic power--delay frontier.
- ``experiments`` -- regenerate the paper's Figure 4, Table 1, or
  Figure 5 tables.
- ``validate`` -- run a model (paper preset or a JSON config) through
  the admission gate and print the report; exits 0 when admitted
  as-is, :data:`EXIT_REPAIRED` when an exact remediation was applied,
  and 3 when rejected.
- ``profile`` -- render a ``--profile-out`` phase-profile JSON as a
  call tree plus a hot-phase table.
- ``bench-report`` -- print trend tables for ``benchmarks/BENCH_*.json``
  records, or diff them against a baseline directory; ``--check`` exits
  :data:`EXIT_BENCH_REGRESSION` when a checked metric regressed beyond
  its tolerance.
- ``serve`` -- the self-healing policy-serving runtime
  (:mod:`repro.serve`): bootstrap from an artifact directory, then
  either answer decisions over a JSON-lines TCP endpoint (``--port``)
  or drive the deterministic virtual-time soak loop (default; the CI
  chaos job runs it with ``--chaos``). Exits 0 when the run ends on
  the fresh rung, :data:`EXIT_SERVING_DEGRADED` when it ends stale or
  on the heuristic.

All model subcommands default to the paper's Section-V system;
``--rate``, ``--capacity``, and ``--weight`` adjust it. Every
subcommand accepts ``--metrics-out`` / ``--trace-out`` /
``--profile-out`` (``--profile-out`` implies span collection, so a
trace and a profile can come from the same run).

Library failures (:class:`repro.errors.ReproError` subclasses) exit
with a one-line ``error: ...`` message on stderr and a distinct
nonzero code per failure family (see :data:`EXIT_CODES`; the README
documents the table). ``--debug`` re-raises with the full traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import errors
from repro.dpm.optimizer import optimize_constrained, optimize_weighted
from repro.dpm.presets import paper_system
from repro.experiments.reporting import format_table
from repro.obs.log import LEVELS, configure_logging
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrument
from repro.obs.trace import Tracer

#: Exit-code mapping for library failures, most specific class first
#: (2 is argparse's usage-error code, so library codes start at 3).
EXIT_CODES = (
    (errors.InfeasibleConstraintError, 5),
    (errors.SolverError, 4),
    (errors.WorkerFailureError, 8),
    (errors.SimulationError, 6),
    (errors.CheckpointError, 7),
    (errors.ArtifactError, 12),
    (errors.CertificationError, 14),
    (errors.ServeRequestError, 3),
    (errors.InvalidGeneratorError, 3),
    (errors.NotIrreducibleError, 3),
    (errors.InvalidModelError, 3),
    (errors.InvalidPolicyError, 3),
    (errors.ReproError, 9),
)


#: ``validate`` verdict ``"repaired"``: the model is solvable, but only
#: after the (exact) remediation recorded in the printed report.
EXIT_REPAIRED = 10

#: ``bench-report --check``: at least one checked metric moved past its
#: regression tolerance relative to the baseline.
EXIT_BENCH_REGRESSION = 11

#: ``serve``: a policy-serving artifact was corrupt, inadmissible, or
#: could not be produced (see :class:`repro.errors.ArtifactError`).
EXIT_ARTIFACT = 12

#: ``serve``: the run ended below the fresh rung of the degradation
#: ladder -- answering from a stale artifact or the N-policy heuristic.
EXIT_SERVING_DEGRADED = 13

#: ``certify``: the solved policy failed independent certification
#: (Bellman gap, LP duality gap, exact-arithmetic mismatch, or backend
#: disagreement); also the exit code of the
#: :class:`repro.errors.CertificationError` family.
EXIT_CERTIFICATION = 14


def exit_code_for(exc: Exception) -> int:
    """The CLI exit code for a library exception (9 = generic ReproError)."""
    for cls, code in EXIT_CODES:
        if isinstance(exc, cls):
            return code
    return 9


def _add_model_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rate", type=float, default=1 / 6,
        help="arrival rate lambda in requests/second (default: 1/6)",
    )
    parser.add_argument(
        "--capacity", type=int, default=5,
        help="queue capacity Q (default: 5)",
    )


def _build_model(args: argparse.Namespace):
    return paper_system(arrival_rate=args.rate, capacity=args.capacity)


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    from repro.ctmdp.backends import BACKENDS

    parser.add_argument(
        "--backend", default="auto", choices=BACKENDS,
        help="solver/model backend (default: auto -- dense below "
             "the state-count threshold, sparse above it)",
    )


def _add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("checkpointing")
    group.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="persist completed sub-results to PATH (JSON) so a killed "
             "run can be resumed with --resume",
    )
    group.add_argument(
        "--resume", action="store_true",
        help="load previously completed sub-results from --checkpoint "
             "(must match this run's configuration) and only compute "
             "the rest; output is identical to an uninterrupted run",
    )


def _open_checkpoint(args: argparse.Namespace, config: dict):
    from repro.robust.checkpoint import open_checkpoint

    if args.resume and args.checkpoint is None:
        raise errors.CheckpointError("--resume requires --checkpoint PATH")
    return open_checkpoint(args.checkpoint, config, resume=args.resume)


def _metrics_rows(metrics) -> "list[tuple[str, float]]":
    return [
        ("average power [W]", metrics.average_power),
        ("average queue length", metrics.average_queue_length),
        ("average waiting time [s]", metrics.average_waiting_time),
        ("loss rate [1/s]", metrics.loss_rate),
    ]


def cmd_solve(args: argparse.Namespace) -> int:
    model = _build_model(args)
    if args.max_queue_length is not None:
        if args.backend not in ("auto", "compiled"):
            raise errors.SolverError(
                "constrained mode solves the occupation-measure LP, which "
                f"is dense-only; --backend {args.backend} is not supported"
            )
        result = optimize_constrained(model, args.max_queue_length)
        print(f"constrained optimum (L <= {args.max_queue_length:g}):")
    else:
        result = optimize_weighted(model, args.weight, backend=args.backend)
        print(f"weighted optimum (w = {args.weight:g}):")
    print(format_table(("metric", "value"), _metrics_rows(result.metrics)))
    if args.show_policy:
        from repro.ctmdp.policy import RandomizedPolicy

        print()
        policy = result.policy
        if isinstance(policy, RandomizedPolicy):
            rows = [
                (repr(s), ", ".join(f"{a}:{p:.3f}" for a, p in d.items() if p > 0))
                for s, d in (
                    (s, policy.distribution(s)) for s in policy.mdp.states
                )
            ]
        else:
            rows = sorted(
                ((repr(s), a) for s, a in policy.as_dict().items())
            )
        print(format_table(("system state", "command"), rows))
    return 0


def _policy_factory(args: argparse.Namespace, model):
    """A zero-argument factory building the requested policy, or None.

    A factory (rather than an instance) so ``--replications`` can hand
    it to :func:`repro.sim.batch.run_replications`, which constructs a
    fresh policy per replication; the CTMDP solve behind ``optimal``
    happens once, here, not per replication.
    """
    from repro.policies import (
        AlwaysOnPolicy,
        GreedyPolicy,
        NPolicy,
        OptimalCTMDPPolicy,
        TimeoutPolicy,
    )

    if args.policy == "optimal":
        solved = optimize_weighted(
            model, args.weight, backend=getattr(args, "backend", "auto")
        )
        return lambda: OptimalCTMDPPolicy(solved.policy, model.capacity)
    if args.policy == "greedy":
        return lambda: GreedyPolicy(model.provider)
    if args.policy == "always-on":
        return lambda: AlwaysOnPolicy(model.provider)
    if args.policy.startswith("npolicy:"):
        n = int(args.policy.split(":", 1)[1])
        return lambda: NPolicy(n, model.provider)
    if args.policy.startswith("timeout:"):
        timeout = float(args.policy.split(":", 1)[1])
        return lambda: TimeoutPolicy(timeout, model.provider)
    return None


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim import PoissonProcess, simulate

    model = _build_model(args)
    factory = _policy_factory(args, model)
    if factory is None:
        print(f"unknown policy {args.policy!r}", file=sys.stderr)
        return 2
    result = simulate(
        provider=model.provider,
        capacity=model.capacity,
        workload=PoissonProcess(model.requestor.rate),
        policy=factory(),
        n_requests=args.requests,
        seed=args.seed,
    )
    rows = [
        ("policy", result.policy_name),
        ("average power [W]", result.average_power),
        ("average queue length", result.average_queue_length),
        ("average waiting time [s]", result.average_waiting_time),
        ("loss probability", result.loss_probability),
        ("PM invocations", result.n_pm_invocations),
    ]
    print(format_table(("metric", "value"), rows))
    if args.replications > 1:
        from repro.sim.batch import run_replications, summarize

        checkpoint = _open_checkpoint(args, {
            "task": "simulate-replications",
            "rate": args.rate,
            "capacity": args.capacity,
            "policy": args.policy,
            "weight": args.weight,
            "requests": args.requests,
            "seed": args.seed,
            "replications": args.replications,
            "backend": args.backend,
        })
        results = run_replications(
            model.provider,
            model.capacity,
            lambda: PoissonProcess(model.requestor.rate),
            factory,
            n_requests=args.requests,
            n_replications=args.replications,
            base_seed=args.seed,
            n_jobs=args.jobs,
            checkpoint=checkpoint,
        )
        summaries = summarize(results)
        last_seed = args.seed + args.replications - 1
        print()
        print(
            f"{args.replications} replications "
            f"(seeds {args.seed}..{last_seed}):"
        )
        print(
            format_table(
                ("metric", "mean", "std error", "95% half-width"),
                [
                    (s.name, s.mean, s.std_error, s.half_width)
                    for s in summaries.values()
                ],
            )
        )
    if args.json_out:
        from repro.sim.trace_io import save_result

        save_result(result, args.json_out)
        print(f"result written to {args.json_out}")
    return 0


def cmd_frontier(args: argparse.Namespace) -> int:
    from repro.dpm.pareto import deterministic_frontier

    model = _build_model(args)
    checkpoint = _open_checkpoint(args, {
        "task": "frontier",
        "rate": args.rate,
        "capacity": args.capacity,
        "max_weight": args.max_weight,
        "weight_tolerance": args.weight_tolerance,
        "backend": args.backend,
    })
    frontier = deterministic_frontier(
        model,
        max_weight=args.max_weight,
        weight_tolerance=args.weight_tolerance,
        checkpoint=checkpoint,
        backend=args.backend,
    )
    rows = [
        (f"{p.weight:.5f}", p.power, p.delay, p.metrics.average_waiting_time)
        for p in frontier
    ]
    print(
        format_table(
            ("weight", "power [W]", "avg queue", "avg waiting [s]"), rows
        )
    )
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    """Print the model structure (the paper's Figures 1/2 as text)."""
    from repro.dpm.describe import describe_service_provider, describe_service_queue

    model = _build_model(args)
    print("service provider (Figure 1, Example 4.1 policy):")
    for line in describe_service_provider(
        model.provider,
        {"active": "waiting", "waiting": "sleeping", "sleeping": "active"},
    ):
        print(f"  {line}")
    print()
    print("service queue with transfer states (Figure 2, sleep at transfers):")
    for line in describe_service_queue(
        model, sp_mode="active", transfer_action="sleeping"
    ):
        print(f"  {line}")
    print()
    print(
        f"joint state space: {model.n_states} states "
        f"({len(model.provider.modes)} modes x {model.capacity + 1} stable "
        f"+ {len(model.provider.active_modes)} x {model.capacity} transfer)"
    )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    import json as _json

    from repro.robust.admission import admit_model

    if args.config is not None:
        from repro.dpm.config import load_system

        model = load_system(args.config)
    else:
        model = _build_model(args)
    report = admit_model(
        model, level=args.level, weight=args.weight, raise_on_reject=False,
        backend=args.backend,
    )
    unichain_report = None
    if args.unichain:
        from repro.dpm.verification import verify_model

        unichain_report = verify_model(
            model, sample_budget=args.unichain_budget
        )
    if args.json:
        doc = report.to_dict()
        if unichain_report is not None:
            doc["unichain"] = {
                "ok": unichain_report.ok,
                "n_policies_total": unichain_report.n_policies_total,
                "n_policies_checked": unichain_report.n_policies_checked,
                "exhaustive": unichain_report.exhaustive,
                "n_violations": len(unichain_report.violations),
            }
        print(_json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"verdict: {report.verdict} (level: {report.level})")
        diag_rows = sorted(
            (k, v if isinstance(v, (int, bool)) else f"{float(v):g}"
             if isinstance(v, float) else v)
            for k, v in report.diagnostics.items()
        )
        if diag_rows:
            print(format_table(("diagnostic", "value"), diag_rows))
        if report.findings:
            print(format_table(
                ("severity", "code", "where", "message"),
                [(f.severity, f.code,
                  f.state if f.state is not None else "-",
                  f.message)
                 for f in report.findings],
            ))
        if report.remediation:
            print("remediation:", _json.dumps(report.remediation, sort_keys=True))
        if unichain_report is not None:
            sweep = "exhaustive" if unichain_report.exhaustive else "sampled"
            print(
                f"unichain: {'ok' if unichain_report.ok else 'VIOLATED'} "
                f"({unichain_report.n_policies_checked}/"
                f"{unichain_report.n_policies_total} policies, {sweep})"
            )
            for assignment in unichain_report.violations[:5]:
                print(f"  multichain policy: {assignment}")
    if args.report_out:
        from repro.obs.export import run_manifest, write_admission_report

        write_admission_report(
            report, args.report_out,
            manifest=run_manifest(seed=None),
        )
        if not args.json:
            print(f"report written to {args.report_out}")
    if report.verdict == "rejected":
        return 3
    if unichain_report is not None and not unichain_report.ok:
        return 3
    if report.verdict == "repaired":
        return EXIT_REPAIRED
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    import json as _json

    from repro.certify import certify_artifact, certify_result

    model = _build_model(args)
    checks = tuple(args.checks.split(",")) if args.checks else None
    kwargs = {}
    if args.tolerance is not None:
        kwargs["tolerance"] = args.tolerance
    if checks is not None:
        kwargs["checks"] = checks
    if args.artifact is not None:
        from repro.serve.artifact import load_artifact

        artifact = load_artifact(args.artifact)
        report = certify_artifact(artifact, model, **kwargs)
    elif args.max_queue_length is not None:
        result = optimize_constrained(model, args.max_queue_length)
        report = certify_result(
            model,
            result,
            constraints={"queue_length": args.max_queue_length},
            **kwargs,
        )
    else:
        result = optimize_weighted(model, args.weight, solver=args.solver)
        report = certify_result(model, result, **kwargs)
    if args.cert_out:
        with open(args.cert_out, "w") as handle:
            _json.dump(report.to_document(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.json:
        print(_json.dumps(report.to_document(), indent=2, sort_keys=True))
    else:
        print(
            f"verdict: {report.verdict} (mode: {report.mode}, "
            f"tolerance: {report.tolerance:g})"
        )
        print(format_table(
            ("check", "status", "evidence"),
            [(c.name, c.status, _check_evidence(c)) for c in report.checks],
        ))
        if report.findings:
            print(format_table(
                ("code", "where", "message"),
                [(f.code, f.state if f.state is not None else "-", f.message)
                 for f in report.findings],
            ))
        if args.cert_out:
            print(f"certificate written to {args.cert_out}")
    return 0 if report.certified else EXIT_CERTIFICATION


def _check_evidence(check) -> str:
    """One-line human summary of a check's numeric evidence."""
    for key in (
        "suboptimality_gap", "duality_gap", "exact_gain", "max_spread",
        "reason",
    ):
        if key in check.data:
            value = check.data[key]
            text = f"{value:.3e}" if isinstance(value, float) else str(value)
            return f"{key}={text}"
    return "-"


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.profile import format_profile, read_profile

    profile = read_profile(args.profile)
    print(format_profile(profile, sort=args.sort, limit=args.limit), end="")
    return 0


def cmd_bench_report(args: argparse.Namespace) -> int:
    from repro.obs.benchtrack import bench_report, regressions

    if args.check and args.baseline is None:
        print(
            "error: --check needs --baseline DIR to compare against",
            file=sys.stderr,
        )
        return 2
    text, deltas = bench_report(
        args.bench_dir,
        baseline_dir=args.baseline,
        only=args.only,
        verbose=args.verbose,
    )
    print(text)
    if args.check:
        bad = regressions(deltas)
        if bad:
            print(
                f"bench regression check FAILED: {len(bad)} metric(s) "
                "regressed beyond tolerance",
                file=sys.stderr,
            )
            return EXIT_BENCH_REGRESSION
        print("bench regression check passed")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve import ArtifactStore, ServingRuntime
    from repro.serve.supervisor import CircuitBreaker, RetryPolicy

    model = _build_model(args)
    store = ArtifactStore(args.artifact_dir)
    solve = None
    plan = None
    attempt_timeout = args.attempt_timeout
    if args.chaos:
        from repro.serve.chaos import ChaosPlan, ChaosSolver

        solve = ChaosSolver(
            model,
            args.weight,
            probabilities={"crash": 0.25, "hang": 0.05, "nan": 0.15},
            seed=args.chaos_seed,
            solver="policy_iteration",
            backend=args.backend,
            hang_sleep=0.15,
        )
        plan = ChaosPlan(
            model.requestor.rate,
            seed=args.chaos_seed,
            storm_period=max(args.duration / 8.0, 1.0),
            corrupt_probability=0.01,
            reload_probability=0.02,
        )
        if attempt_timeout is None:
            attempt_timeout = 0.05
    runtime = ServingRuntime(
        model,
        args.weight,
        store,
        backend=args.backend,
        drift_threshold=args.drift_threshold,
        drift_consecutive=args.drift_consecutive,
        retry=RetryPolicy(attempts=args.retries, base_delay=0.01),
        breaker=CircuitBreaker(
            failure_threshold=args.breaker_threshold, reset_timeout=0.1
        ),
        attempt_timeout=attempt_timeout,
        solve=solve,
    )
    rung = runtime.bootstrap(initial_solve=not args.no_initial_solve)
    print(
        f"bootstrap: serving from the {rung!r} rung "
        f"(source: {runtime.bootstrap_source})"
    )
    if runtime.bootstrap_error:
        print(f"bootstrap note: {runtime.bootstrap_error}", file=sys.stderr)
    if args.port is not None:
        import asyncio

        async def _run() -> None:
            server = await asyncio.start_server(
                runtime.handle_connection, args.host, args.port
            )
            host, port = server.sockets[0].getsockname()[:2]
            print(f"serving on {host}:{port} (JSON lines; op=health for status)")
            async with server:
                if args.duration > 0:
                    await asyncio.sleep(args.duration)
                else:  # pragma: no cover - interactive mode
                    await server.serve_forever()

        asyncio.run(_run())
    else:
        report = runtime.soak(
            args.duration, seed=args.seed, chaos=plan,
            adapt_every=args.adapt_every,
        )
        doc = report.to_dict()
        if plan is not None:
            doc["chaos"] = {
                "seed": args.chaos_seed,
                "solver_outcomes": solve.outcomes,
                "corruptions": plan.corruptions,
                "reload_attempts": plan.reload_attempts,
                "reload_rejections": plan.reload_rejections,
                "reload_successes": plan.reload_successes,
            }
        if args.json_out:
            with open(args.json_out, "w") as handle:
                _json.dump(doc, handle, indent=2, sort_keys=True)
            print(f"soak report written to {args.json_out}")
        print(
            f"soak: {report.decisions} decisions over {report.arrivals} "
            f"arrivals in {args.duration:g}s of virtual time "
            f"({report.resolves} re-solves, "
            f"{report.resolve_successes} succeeded)"
        )
        if report.selfcheck_violations:
            print(
                f"error: {report.selfcheck_violations} decision(s) "
                "inconsistent with the admitted artifact",
                file=sys.stderr,
            )
            return 1
    status = runtime.status()
    print(
        f"health: {status['health']} (source: {status['source']}, "
        f"artifact v{status['artifact_version']}, "
        f"breaker: {status['breaker']}, "
        f"breaker opened {status['breaker_opened']}x)"
    )
    if status["health"] != "ok":
        return EXIT_SERVING_DEGRADED
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    if args.exhibit == "figure4":
        from repro.experiments.figure4 import format_figure4, run_figure4

        rows = run_figure4(n_requests=args.requests, n_jobs=args.jobs)
        print(format_figure4(rows))
    elif args.exhibit == "table1":
        from repro.experiments.table1 import format_table1, run_table1

        rows = run_table1(n_requests=args.requests, n_jobs=args.jobs)
        print(format_table1(rows))
    else:
        from repro.experiments.figure5 import format_figure5, run_figure5

        rows = run_figure5(n_requests=args.requests, n_jobs=args.jobs)
        print(format_figure5(rows))
    if args.csv_out:
        from repro.experiments.export import export_rows

        export_rows(rows, args.csv_out)
        print(f"rows written to {args.csv_out}")
    return 0


def _observability_parent() -> argparse.ArgumentParser:
    """Shared ``--metrics-out/--trace-out/--log-level`` flags.

    Attached to every subcommand via ``parents=`` so the flags are
    accepted after the subcommand name, where users type them.
    """
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("observability")
    group.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the run's metrics registry (counters, histograms, "
             "convergence series) as JSON to PATH",
    )
    group.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write span timings as JSONL to PATH (first line: manifest)",
    )
    group.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="profile the run (wall + CPU time and tracemalloc peak per "
             "span) and write the self/cumulative phase tree as JSON to "
             "PATH; render it with 'repro-dpm profile PATH'",
    )
    group.add_argument(
        "--log-level", default=None, choices=LEVELS,
        help="enable stderr logging at this level",
    )
    group.add_argument(
        "--debug", action="store_true",
        help="re-raise library errors with a full traceback instead of "
             "the one-line message + exit code",
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dpm",
        description="CTMDP-based dynamic power management (Qiu & Pedram, DAC 1999)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = _observability_parent()

    solve = sub.add_parser("solve", help="optimize a power-management policy",
                           parents=[common])
    _add_model_arguments(solve)
    solve.add_argument("--weight", type=float, default=1.0,
                       help="performance weight w of Eqn. 3.1 (default: 1)")
    solve.add_argument("--max-queue-length", type=float, default=None,
                       help="delay bound D_M; switches to constrained mode")
    solve.add_argument("--show-policy", action="store_true",
                       help="print the full state->command table")
    _add_backend_argument(solve)
    solve.set_defaults(func=cmd_solve)

    simulate_p = sub.add_parser("simulate", help="run the event-driven simulator",
                                parents=[common])
    _add_model_arguments(simulate_p)
    simulate_p.add_argument("--policy", default="optimal",
                            help="optimal | greedy | always-on | npolicy:N | timeout:SECONDS")
    simulate_p.add_argument("--weight", type=float, default=1.0,
                            help="weight used when --policy=optimal")
    simulate_p.add_argument("--requests", type=int, default=50_000,
                            help="requests to generate (default: 50000)")
    simulate_p.add_argument("--seed", type=int, default=0)
    simulate_p.add_argument("--replications", type=int, default=1,
                            help="independent replications (seeds seed..seed+N-1); "
                                 "N > 1 adds a mean +- stderr summary table")
    simulate_p.add_argument("--jobs", type=int, default=None,
                            help="worker processes for the replications "
                                 "(-1 = all cores); results are identical to "
                                 "a serial run")
    simulate_p.add_argument("--json-out", default=None,
                            help="also dump the result as JSON to this path")
    _add_backend_argument(simulate_p)
    _add_checkpoint_arguments(simulate_p)
    simulate_p.set_defaults(func=cmd_simulate)

    frontier = sub.add_parser("frontier", help="print the exact Pareto frontier",
                              parents=[common])
    _add_model_arguments(frontier)
    frontier.add_argument("--max-weight", type=float, default=1e3)
    frontier.add_argument("--weight-tolerance", type=float, default=1e-4,
                          help="bisection resolution on the weight axis "
                               "(default: 1e-4)")
    _add_backend_argument(frontier)
    _add_checkpoint_arguments(frontier)
    frontier.set_defaults(func=cmd_frontier)

    describe = sub.add_parser(
        "describe", help="print the model structure (Figures 1/2 as text)",
        parents=[common],
    )
    _add_model_arguments(describe)
    describe.set_defaults(func=cmd_describe)

    experiments = sub.add_parser("experiments", help="regenerate a paper exhibit",
                                 parents=[common])
    experiments.add_argument("exhibit", choices=("figure4", "table1", "figure5"))
    experiments.add_argument("--requests", type=int, default=50_000)
    experiments.add_argument("--jobs", type=int, default=None,
                             help="worker processes for independent solves/"
                                  "simulations (-1 = all cores); results are "
                                  "identical to a serial run")
    experiments.add_argument("--csv-out", default=None,
                             help="also export the series as CSV to this path")
    experiments.set_defaults(func=cmd_experiments)

    validate = sub.add_parser(
        "validate",
        help="run a model through the admission gate and print the report",
        parents=[common],
    )
    validate.add_argument(
        "config", nargs="?", default=None,
        help="JSON model config (see repro.dpm.config); defaults to the "
             "paper preset adjusted by --rate/--capacity",
    )
    _add_model_arguments(validate)
    validate.add_argument("--weight", type=float, default=1.0,
                          help="cost weight used for the built CTMDP")
    validate.add_argument("--level", default="full",
                          choices=("entry", "standard", "full"),
                          help="admission depth (default: full)")
    validate.add_argument("--json", action="store_true",
                          help="print the report as JSON instead of tables")
    validate.add_argument("--report-out", default=None, metavar="PATH",
                          help="also write the report (with a run manifest) "
                               "as JSON to PATH")
    validate.add_argument("--unichain", action="store_true",
                          help="also sweep the deterministic policy space "
                               "for multichain violations (the Section-III "
                               "connectivity guarantee); violations exit 3")
    validate.add_argument("--unichain-budget", type=int, default=500,
                          help="policy-sample budget for the unichain sweep "
                               "(exhaustive when the space fits; default: 500)")
    _add_backend_argument(validate)
    validate.set_defaults(func=cmd_validate)

    certify = sub.add_parser(
        "certify",
        help="solve and independently certify a policy (proof-carrying "
             "optimality evidence)",
        parents=[common],
    )
    _add_model_arguments(certify)
    certify.add_argument("--weight", type=float, default=1.0,
                         help="performance weight w of Eqn. 3.1 (default: 1)")
    certify.add_argument("--max-queue-length", type=float, default=None,
                         help="delay bound D_M; switches to constrained mode")
    certify.add_argument("--solver", default="policy_iteration",
                         choices=("policy_iteration", "value_iteration",
                                  "linear_program"),
                         help="solver under test (default: policy_iteration)")
    certify.add_argument("--artifact", default=None, metavar="PATH",
                         help="certify a stored serve artifact instead of "
                              "solving (uses its own rate/weight/metrics)")
    certify.add_argument("--tolerance", type=float, default=None,
                         help="relative certification tolerance "
                              "(default: 1e-6)")
    certify.add_argument("--checks", default=None,
                         help="comma-separated subset of "
                              "bellman,lp,exact,consensus (default: all)")
    certify.add_argument("--json", action="store_true",
                         help="print the certificate document as JSON")
    certify.add_argument("--cert-out", default=None, metavar="PATH",
                         help="also write the certificate document to PATH")
    certify.set_defaults(func=cmd_certify)

    profile = sub.add_parser(
        "profile",
        help="render a --profile-out phase-profile JSON as text",
        parents=[common],
    )
    profile.add_argument("profile", help="profile JSON written by --profile-out")
    profile.add_argument("--sort", default="self", choices=("self", "cum"),
                         help="hot-phase table ordering (default: self time)")
    profile.add_argument("--limit", type=int, default=30,
                         help="rows in the hot-phase table (default: 30)")
    profile.set_defaults(func=cmd_profile)

    bench = sub.add_parser(
        "bench-report",
        help="print BENCH_*.json trend tables; diff against a baseline",
        parents=[common],
    )
    bench.add_argument("--bench-dir", default="benchmarks",
                       help="directory holding BENCH_*.json (default: benchmarks)")
    bench.add_argument("--baseline", default=None, metavar="DIR",
                       help="baseline directory of BENCH_*.json to diff against")
    bench.add_argument("--only", default=None, metavar="PATTERN",
                       help="restrict to metric names matching PATTERN "
                            "(substring, or fnmatch glob)")
    bench.add_argument("--check", action="store_true",
                       help=f"exit {EXIT_BENCH_REGRESSION} if any checked "
                            "metric regressed beyond its tolerance")
    bench.add_argument("--verbose", action="store_true",
                       help="show unchanged and informational metrics too")
    bench.set_defaults(func=cmd_bench_report)

    serve = sub.add_parser(
        "serve",
        help="run the self-healing policy-serving runtime",
        parents=[common],
    )
    _add_model_arguments(serve)
    serve.add_argument("--weight", type=float, default=1.0,
                       help="performance weight of the served objective")
    serve.add_argument("--artifact-dir", default="artifacts", metavar="DIR",
                       help="directory holding the policy artifact "
                            "(default: artifacts); bootstraps from a "
                            "last-good artifact found there")
    serve.add_argument("--duration", type=float, default=600.0,
                       help="virtual seconds to soak (default: 600), or "
                            "wall-clock seconds to stay up with --port "
                            "(0 = forever)")
    serve.add_argument("--seed", type=int, default=0,
                       help="seed for the soak loop's arrival stream")
    serve.add_argument("--port", type=int, default=None,
                       help="serve a JSON-lines TCP endpoint on this port "
                            "instead of running the soak loop")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--drift-threshold", type=float, default=0.25,
                       help="relative rate deviation that counts as drift "
                            "(default: 0.25)")
    serve.add_argument("--drift-consecutive", type=int, default=3,
                       help="consecutive beyond-threshold estimates needed "
                            "to confirm drift (default: 3)")
    serve.add_argument("--adapt-every", type=int, default=25,
                       help="soak arrivals between adaptation checks "
                            "(default: 25)")
    serve.add_argument("--retries", type=int, default=3,
                       help="solve attempts per re-solve request (default: 3)")
    serve.add_argument("--breaker-threshold", type=int, default=3,
                       help="consecutive failed re-solves before the "
                            "circuit breaker opens (default: 3)")
    serve.add_argument("--attempt-timeout", type=float, default=None,
                       help="wall-clock budget per solve attempt in seconds "
                            "(default: none -- solves run inline)")
    serve.add_argument("--no-initial-solve", action="store_true",
                       help="do not solve at bootstrap when no stored "
                            "artifact is admissible (start on the "
                            "heuristic rung)")
    serve.add_argument("--chaos", action="store_true",
                       help="seeded fault injection: solver crashes/hangs/"
                            "NaN results, artifact corruption, drift storm "
                            "(the CI chaos job)")
    serve.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for --chaos fault injection (default: 0)")
    serve.add_argument("--json-out", default=None, metavar="PATH",
                       help="write the soak report as JSON to PATH")
    _add_backend_argument(serve)
    serve.set_defaults(func=cmd_serve)

    return parser


def _dispatch(args: argparse.Namespace, argv: "Optional[Sequence[str]]") -> int:
    if args.log_level is not None:
        configure_logging(args.log_level)
    registry = MetricsRegistry() if args.metrics_out else None
    profile_out = getattr(args, "profile_out", None)
    if profile_out:
        # The profiler IS a tracer, so one object serves both
        # --trace-out and --profile-out from the same span stream.
        from repro.obs.profile import PhaseProfiler

        tracer = PhaseProfiler()
    elif args.trace_out:
        tracer = Tracer()
    else:
        tracer = None
    if registry is None and tracer is None:
        return args.func(args)
    from repro.obs.export import (
        run_manifest,
        write_metrics,
        write_profile,
        write_trace,
    )

    try:
        with instrument(metrics=registry, tracer=tracer):
            status = args.func(args)
    finally:
        if profile_out:
            tracer.close()
    manifest = run_manifest(
        argv=list(argv) if argv is not None else sys.argv[1:],
        seed=getattr(args, "seed", None),
    )
    if registry is not None:
        write_metrics(registry, args.metrics_out, manifest=manifest)
        print(f"metrics written to {args.metrics_out}")
    if tracer is not None and args.trace_out:
        write_trace(tracer, args.trace_out, manifest=manifest)
        print(f"trace written to {args.trace_out}")
    if profile_out:
        write_profile(tracer, profile_out, manifest=manifest)
        print(f"profile written to {profile_out}")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args, argv)
    except errors.ReproError as exc:
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
