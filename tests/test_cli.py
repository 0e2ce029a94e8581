"""Tests for the repro-dpm command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestSolveCommand:
    def test_weighted_solve(self, capsys):
        assert main(["solve", "--weight", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "weighted optimum" in out
        assert "average power [W]" in out

    def test_constrained_solve(self, capsys):
        assert main(["solve", "--max-queue-length", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "constrained optimum" in out

    def test_show_policy_prints_table(self, capsys):
        assert main(["solve", "--show-policy"]) == 0
        out = capsys.readouterr().out
        assert "system state" in out
        assert "(active,q0)" in out

    def test_custom_rate_and_capacity(self, capsys):
        assert main(["solve", "--rate", "0.25", "--capacity", "3"]) == 0


class TestSimulateCommand:
    def test_optimal_policy(self, capsys):
        assert main(["simulate", "--requests", "500", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PM invocations" in out

    @pytest.mark.parametrize(
        "policy", ["greedy", "always-on", "npolicy:3", "timeout:2.5"]
    )
    def test_named_policies(self, capsys, policy):
        assert main(["simulate", "--policy", policy, "--requests", "300"]) == 0

    def test_unknown_policy_fails(self, capsys):
        assert main(["simulate", "--policy", "magic", "--requests", "10"]) == 2

    def test_json_output(self, tmp_path, capsys):
        out_file = tmp_path / "result.json"
        assert (
            main(
                [
                    "simulate",
                    "--requests",
                    "300",
                    "--json-out",
                    str(out_file),
                ]
            )
            == 0
        )
        from repro.sim.trace_io import load_result

        result = load_result(out_file)
        assert result.n_generated == 300


class TestFrontierCommand:
    def test_prints_frontier(self, capsys):
        assert main(["frontier", "--max-weight", "50"]) == 0
        out = capsys.readouterr().out
        assert "power [W]" in out
        assert out.count("\n") >= 5


class TestDescribeCommand:
    def test_prints_figures(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "active -> waiting  rate=10" in out
        assert "q1 -> q1->0" in out
        assert "joint state space: 23 states" in out

    def test_custom_capacity(self, capsys):
        assert main(["describe", "--capacity", "2"]) == 0
        out = capsys.readouterr().out
        assert "joint state space: 11 states" in out


class TestExperimentsCommand:
    def test_table1_small(self, capsys):
        assert main(["experiments", "table1", "--requests", "1500"]) == 0
        out = capsys.readouterr().out
        assert "error [%]" in out

    def test_csv_export(self, tmp_path, capsys):
        out_file = tmp_path / "table1.csv"
        assert (
            main(
                [
                    "experiments",
                    "table1",
                    "--requests",
                    "1500",
                    "--csv-out",
                    str(out_file),
                ]
            )
            == 0
        )
        from repro.experiments.export import read_rows

        rows = read_rows(out_file)
        assert len(rows) == 6
        assert "error_percent" in rows[0]


class TestReplications:
    def test_summary_table_printed(self, capsys):
        assert (
            main(
                [
                    "simulate",
                    "--policy",
                    "greedy",
                    "--requests",
                    "300",
                    "--replications",
                    "3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "3 replications (seeds 0..2)" in out
        assert "std error" in out
        assert "average_power" in out

    def test_parallel_matches_serial(self, capsys):
        argv = [
            "simulate", "--policy", "npolicy:2", "--requests", "300",
            "--replications", "4", "--seed", "5",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_single_replication_prints_no_summary(self, capsys):
        assert main(["simulate", "--requests", "200"]) == 0
        assert "replications" not in capsys.readouterr().out


class TestObservabilityFlags:
    def test_solve_writes_convergence_metrics(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        assert main(["solve", "--metrics-out", str(path)]) == 0
        from repro.obs.export import read_metrics

        data = read_metrics(path)
        assert data["manifest"]["argv"][0] == "solve"
        conv = data["metrics"]["solver.policy_iteration.convergence"]
        rows = conv["records"]
        assert len(rows) >= 2
        assert {"iteration", "residual", "policy_changes"} <= set(rows[-1])
        assert rows[-1]["policy_changes"] == 0  # converged
        assert data["metrics"]["solver.policy_iteration.solves"]["value"] == 1

    def test_simulate_writes_metrics_and_trace(self, tmp_path, capsys):
        m_path, t_path = tmp_path / "m.json", tmp_path / "t.jsonl"
        assert (
            main(
                [
                    "simulate",
                    "--policy",
                    "greedy",
                    "--requests",
                    "400",
                    "--metrics-out",
                    str(m_path),
                    "--trace-out",
                    str(t_path),
                ]
            )
            == 0
        )
        from repro.obs.export import read_metrics, read_trace

        metrics = read_metrics(m_path)["metrics"]
        assert metrics["sim.requests.generated"]["value"] == 400
        assert metrics["sim.events"]["value"] > 400
        assert metrics["sim.queue_occupancy"]["count"] > 0
        assert metrics["sim.waiting_time_s"]["count"] > 0
        assert metrics["sim.pm.invocations"]["value"] > 0
        manifest, spans = read_trace(t_path)
        assert manifest["seed"] == 0
        out = capsys.readouterr().out
        assert f"metrics written to {m_path}" in out

    def test_log_level_accepted(self, capsys):
        assert main(["describe", "--log-level", "info"]) == 0

    def test_experiments_metrics_identical_across_jobs(self, tmp_path, capsys):
        import json

        paths = {}
        for jobs in ("1", "2"):
            paths[jobs] = tmp_path / f"m{jobs}.json"
            assert (
                main(
                    [
                        "experiments",
                        "table1",
                        "--requests",
                        "800",
                        "--jobs",
                        jobs,
                        "--metrics-out",
                        str(paths[jobs]),
                    ]
                )
                == 0
            )

        def deterministic(path):
            metrics = json.load(open(path))["metrics"]
            out = {}
            for name, payload in metrics.items():
                if payload.get("profiling"):
                    continue
                if payload.get("type") == "series":
                    drop = set(payload.get("profiling_fields", ()))
                    payload = dict(payload)
                    payload["records"] = [
                        {k: v for k, v in r.items() if k not in drop}
                        for r in payload["records"]
                    ]
                out[name] = payload
            return json.dumps(out, sort_keys=True)

        assert deterministic(paths["1"]) == deterministic(paths["2"])


class TestExitCodes:
    """Library failures map to distinct exit codes + one-line messages."""

    def test_mapping_most_specific_first(self):
        from repro import errors
        from repro.cli import exit_code_for

        assert exit_code_for(errors.InvalidGeneratorError("x")) == 3
        assert exit_code_for(errors.NotIrreducibleError("x")) == 3
        assert exit_code_for(errors.InvalidModelError("x")) == 3
        assert exit_code_for(errors.InvalidPolicyError("x")) == 3
        assert exit_code_for(errors.SolverError("x")) == 4
        assert exit_code_for(errors.InfeasibleConstraintError("x")) == 5
        assert exit_code_for(errors.SimulationError("x")) == 6
        assert exit_code_for(errors.CheckpointError("x")) == 7
        assert exit_code_for(errors.WorkerFailureError("x")) == 8
        assert exit_code_for(errors.ReproError("x")) == 9

    def test_infeasible_constraint_exits_5(self, capsys):
        assert main(["solve", "--max-queue-length", "1e-9"]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1  # one line, no traceback

    def test_solver_error_exits_4(self, capsys):
        assert main(["frontier", "--max-weight", "-1"]) == 4
        assert "error: max_weight must be positive" in capsys.readouterr().err

    def test_checkpoint_error_exits_7(self, capsys):
        assert main(["frontier", "--resume"]) == 7
        assert "error: --resume requires --checkpoint" in capsys.readouterr().err

    def test_debug_reraises_with_traceback(self):
        from repro.errors import InfeasibleConstraintError

        with pytest.raises(InfeasibleConstraintError):
            main(["solve", "--max-queue-length", "1e-9", "--debug"])


class TestCheckpointFlags:
    def test_frontier_checkpoint_resume_identical(self, tmp_path, capsys):
        args = [
            "frontier", "--max-weight", "50", "--weight-tolerance", "0.01",
        ]
        assert main(args) == 0
        reference = capsys.readouterr().out
        ck = tmp_path / "front.json"
        assert main(args + ["--checkpoint", str(ck)]) == 0
        assert capsys.readouterr().out == reference
        # Resume from the completed checkpoint: no re-solves, same output.
        assert main(args + ["--checkpoint", str(ck), "--resume"]) == 0
        assert capsys.readouterr().out == reference

    def test_mismatched_config_rejected(self, tmp_path, capsys):
        ck = tmp_path / "front.json"
        base = ["frontier", "--weight-tolerance", "0.01", "--checkpoint", str(ck)]
        assert main(base + ["--max-weight", "50"]) == 0
        capsys.readouterr()
        assert main(base + ["--max-weight", "60", "--resume"]) == 7
        assert "different configuration" in capsys.readouterr().err

    def test_simulate_replications_checkpoint(self, tmp_path, capsys):
        args = [
            "simulate", "--policy", "greedy", "--requests", "300",
            "--replications", "3",
        ]
        assert main(args) == 0
        reference = capsys.readouterr().out
        ck = tmp_path / "reps.json"
        assert main(args + ["--checkpoint", str(ck)]) == 0
        assert capsys.readouterr().out == reference
        assert main(args + ["--checkpoint", str(ck), "--resume"]) == 0
        assert capsys.readouterr().out == reference


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_exhibit_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiments", "figure9"])

    def test_observability_flags_after_subcommand(self):
        args = build_parser().parse_args(
            ["solve", "--metrics-out", "m.json", "--log-level", "debug"]
        )
        assert args.metrics_out == "m.json"
        assert args.log_level == "debug"
        assert args.trace_out is None

    def test_observability_flags_default_off(self):
        args = build_parser().parse_args(["frontier"])
        assert args.metrics_out is None
        assert args.trace_out is None
        assert args.log_level is None


class TestValidateCommand:
    """The admission-gate subcommand and its exit-code taxonomy."""

    MISSCALED = {
        "provider": {
            "modes": ["on", "off"],
            "switching_rates": [[0, 1e12], [1e11, 0]],
            "service_rates": [1e12, 0],
            "power": [2.0, 0.1],
            "switching_energy": [[0, 0.1], [0.5, 0]],
            "self_switch_rate": 1e15,
        },
        "arrival_rate": 1e11,
        "capacity": 3,
    }

    def test_paper_preset_is_ok(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "verdict: ok" in out
        assert "stiffness_ratio" in out

    def test_json_output(self, capsys):
        import json

        assert main(["validate", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "ok"
        assert payload["level"] == "full"

    def test_repaired_config_exits_10(self, tmp_path, capsys):
        import json

        from repro.cli import EXIT_REPAIRED

        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.MISSCALED))
        assert main(["validate", str(path)]) == EXIT_REPAIRED
        out = capsys.readouterr().out
        assert "verdict: repaired" in out
        assert "extreme-rate-scale" in out
        assert "rate_scale_exponent" in out

    def test_malformed_config_exits_3(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"provider": 3}')
        assert main(["validate", str(path)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_rejected_config_exits_3(self, tmp_path, capsys):
        import copy
        import json

        config = copy.deepcopy(self.MISSCALED)
        config["capacity"] = 0
        path = tmp_path / "rejected.json"
        path.write_text(json.dumps(config))
        assert main(["validate", str(path)]) == 3

    def test_report_out(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "report.json"
        assert main(["validate", "--report-out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        assert payload["admission"]["verdict"] == "ok"
        assert "manifest" in payload

    def test_level_entry_is_cheap(self, capsys):
        assert main(["validate", "--level", "entry"]) == 0
        assert "verdict: ok" in capsys.readouterr().out


class TestProfileFlagAndCommand:
    """--profile-out capture plus the ``repro profile`` renderer."""

    def test_solve_writes_profile(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        assert main(["solve", "--profile-out", str(path)]) == 0
        from repro.obs.profile import read_profile, top_self_phase

        profile = read_profile(path)
        assert profile["schema"] == "repro-profile/v1"
        assert profile["tree"]
        assert top_self_phase(profile)["self_s"] >= 0.0
        assert f"profile written to {path}" in capsys.readouterr().out

    def test_profile_command_renders(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        assert main(["solve", "--profile-out", str(path)]) == 0
        capsys.readouterr()
        assert main(["profile", str(path)]) == 0
        out = capsys.readouterr().out
        assert "phase tree (wall-clock):" in out
        assert "hot phases" in out
        assert main(["profile", str(path), "--sort", "cum"]) == 0

    def test_profile_and_trace_agree(self, tmp_path, capsys):
        """Acceptance: the profile's top self-time phase is a span the
        trace recorded, and the instrumented run leaves an auditable
        backend decision + Krylov residual rows in the metrics."""
        import json

        m, t, p = (tmp_path / n for n in ("m.json", "t.jsonl", "p.json"))
        assert (
            main(
                [
                    "solve",
                    "--capacity",
                    "600",
                    "--backend",
                    "sparse",
                    "--metrics-out",
                    str(m),
                    "--trace-out",
                    str(t),
                    "--profile-out",
                    str(p),
                ]
            )
            == 0
        )
        from repro.obs.export import read_metrics, read_trace
        from repro.obs.profile import read_profile, top_self_phase

        metrics = read_metrics(m)["metrics"]
        (decision,) = metrics["solver.backend.decisions"]["records"]
        assert decision["resolved"] == "sparse"
        assert decision["reason"]
        rows = metrics["solver.sparse.krylov.residuals"]["records"]
        assert rows and all(r["residuals"] for r in rows)
        _, spans = read_trace(t)
        span_names = {s["name"] for s in spans}
        assert "sparse_solve" in span_names
        top = top_self_phase(read_profile(p))
        assert top["name"] in span_names


class TestBenchReportCommand:
    def _bench_dir(self, root, solve_s):
        from repro.obs.benchtrack import record_suite

        root.mkdir(exist_ok=True)
        record_suite(
            root / "BENCH_demo.json",
            "suite",
            {"solve_s": solve_s, "n_states": 10},
            manifest={},
        )
        return root

    def test_trend_mode(self, tmp_path, capsys):
        bench = self._bench_dir(tmp_path / "bench", 1.0)
        assert main(["bench-report", "--bench-dir", str(bench)]) == 0
        out = capsys.readouterr().out
        assert "BENCH_demo.json" in out
        assert "suite.solve_s" in out

    def test_check_requires_baseline(self, capsys):
        assert main(["bench-report", "--check"]) == 2
        assert "--check needs --baseline" in capsys.readouterr().err

    def test_self_compare_passes_check(self, tmp_path, capsys):
        bench = self._bench_dir(tmp_path / "bench", 1.0)
        assert (
            main(
                [
                    "bench-report",
                    "--bench-dir",
                    str(bench),
                    "--baseline",
                    str(bench),
                    "--check",
                ]
            )
            == 0
        )
        assert "check passed" in capsys.readouterr().out

    def test_synthetic_regression_fails_check(self, tmp_path, capsys):
        from repro.cli import EXIT_BENCH_REGRESSION

        baseline = self._bench_dir(tmp_path / "baseline", 1.0)
        current = self._bench_dir(tmp_path / "current", 1.25)
        assert (
            main(
                [
                    "bench-report",
                    "--bench-dir",
                    str(current),
                    "--baseline",
                    str(baseline),
                    "--check",
                ]
            )
            == EXIT_BENCH_REGRESSION
        )
        captured = capsys.readouterr()
        assert "regressed" in captured.out
        assert "FAILED" in captured.err

    def test_only_filter(self, tmp_path, capsys):
        baseline = self._bench_dir(tmp_path / "baseline", 1.0)
        current = self._bench_dir(tmp_path / "current", 1.25)
        assert (
            main(
                [
                    "bench-report",
                    "--bench-dir",
                    str(current),
                    "--baseline",
                    str(baseline),
                    "--only",
                    "n_states",
                    "--check",
                ]
            )
            == 0
        )


class TestValidateObservability:
    def test_metrics_and_trace_passthrough(self, tmp_path, capsys):
        m, t = tmp_path / "m.json", tmp_path / "t.jsonl"
        assert (
            main(
                [
                    "validate",
                    "--metrics-out",
                    str(m),
                    "--trace-out",
                    str(t),
                ]
            )
            == 0
        )
        from repro.obs.export import read_metrics, read_trace

        metrics = read_metrics(m)["metrics"]
        assert metrics["admission.gates"]["value"] >= 1
        verdicts = [
            n for n in metrics if n.startswith("admission.verdict.")
        ]
        assert verdicts
        _, spans = read_trace(t)
        names = {s["name"] for s in spans}
        assert "admission.gate" in names
        assert "admission.structural" in names


class TestServeCommand:
    """The policy-serving runtime behind `repro-dpm serve`."""

    def test_soak_run_healthy(self, tmp_path, capsys):
        assert (
            main(
                [
                    "serve", "--duration", "600", "--seed", "3",
                    "--artifact-dir", str(tmp_path / "artifacts"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bootstrap: serving from the 'fresh' rung" in out
        assert "health: ok" in out
        # The admitted artifact was persisted for the next process.
        assert (tmp_path / "artifacts" / "policy.json").exists()

    def test_bootstrap_reuses_stored_artifact(self, tmp_path, capsys):
        art = str(tmp_path / "artifacts")
        assert main(["serve", "--duration", "60", "--artifact-dir", art]) == 0
        capsys.readouterr()
        assert main(["serve", "--duration", "60", "--artifact-dir", art]) == 0
        assert "(source: stored)" in capsys.readouterr().out

    def test_json_out_report(self, tmp_path, capsys):
        report = tmp_path / "soak.json"
        assert (
            main(
                [
                    "serve", "--duration", "600",
                    "--artifact-dir", str(tmp_path / "artifacts"),
                    "--json-out", str(report),
                ]
            )
            == 0
        )
        import json

        doc = json.loads(report.read_text())
        assert doc["selfcheck_violations"] == 0
        assert doc["decisions"] > 0
        assert doc["final_status"]["health"] == "ok"

    def test_degraded_serving_exits_13(self, tmp_path, capsys):
        assert (
            main(
                [
                    "serve", "--duration", "60", "--no-initial-solve",
                    "--artifact-dir", str(tmp_path / "artifacts"),
                ]
            )
            == 13
        )
        out = capsys.readouterr().out
        assert "'heuristic' rung" in out
        assert "health: degraded" in out

    def test_chaos_soak_survives(self, tmp_path, capsys):
        report = tmp_path / "soak.json"
        code = main(
            [
                "serve", "--chaos", "--duration", "6000",
                "--seed", "0", "--chaos-seed", "0",
                "--artifact-dir", str(tmp_path / "artifacts"),
                "--json-out", str(report),
            ]
        )
        import json

        doc = json.loads(report.read_text())
        assert doc["selfcheck_violations"] == 0
        assert code in (0, 13)  # degraded-but-honest is acceptable
        assert doc["chaos"]["reload_attempts"] == (
            doc["chaos"]["reload_rejections"] + doc["chaos"]["reload_successes"]
        )


class TestServeExitCodes:
    def test_artifact_and_request_error_codes(self):
        from repro import errors
        from repro.cli import exit_code_for

        assert exit_code_for(errors.ArtifactError("x")) == 12
        assert exit_code_for(errors.ArtifactIntegrityError("x")) == 12
        assert exit_code_for(errors.ArtifactRejectedError("x")) == 12
        assert exit_code_for(errors.ArtifactSchemaError("x")) == 12
        assert exit_code_for(errors.ServeRequestError("x")) == 3


class TestBackendInCheckpointConfig:
    """Resuming under a different solver backend must be rejected."""

    def test_frontier_resume_different_backend_rejected(self, tmp_path, capsys):
        ck = tmp_path / "front.json"
        base = ["frontier", "--weight-tolerance", "0.01", "--max-weight", "50",
                "--checkpoint", str(ck)]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--backend", "compiled", "--resume"]) == 7
        assert "different configuration" in capsys.readouterr().err

    def test_simulate_resume_different_backend_rejected(self, tmp_path, capsys):
        ck = tmp_path / "reps.json"
        base = [
            "simulate", "--policy", "greedy", "--requests", "300",
            "--replications", "2", "--checkpoint", str(ck),
        ]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--backend", "compiled", "--resume"]) == 7
        assert "different configuration" in capsys.readouterr().err


class TestCertifyCommand:
    """The proof-carrying certify subcommand and its exit code."""

    def test_weighted_solve_certifies(self, capsys):
        assert main(["certify", "--weight", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "verdict: certified" in out
        assert "bellman" in out and "consensus" in out

    def test_constrained_solve_certifies(self, capsys):
        assert main(["certify", "--max-queue-length", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "verdict: certified" in out
        assert "(mode: constrained" in out

    def test_json_document_round_trips(self, capsys):
        import json

        from repro.certify import CERT_SCHEMA, CertificationReport

        assert main(["certify", "--weight", "0.5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == CERT_SCHEMA
        assert CertificationReport.from_document(doc).certified

    def test_cert_out_writes_certificate(self, tmp_path, capsys):
        import json

        path = tmp_path / "policy.cert.json"
        assert main([
            "certify", "--weight", "0.5", "--cert-out", str(path),
        ]) == 0
        assert f"certificate written to {path}" in capsys.readouterr().out
        assert json.loads(path.read_text())["verdict"] == "certified"

    def test_checks_subset(self, capsys):
        assert main([
            "certify", "--weight", "0.5", "--checks", "bellman,exact",
        ]) == 0
        out = capsys.readouterr().out
        assert "bellman" in out and "lp" not in out.splitlines()

    def test_corrupt_artifact_exits_14(self, tmp_path, capsys):
        import dataclasses

        from repro.cli import EXIT_CERTIFICATION
        from repro.dpm.optimizer import OptimizationResult, optimize_weighted
        from repro.dpm.presets import paper_system
        from repro.serve.artifact import compile_artifact, save_artifact

        model = paper_system(capacity=3)
        honest = optimize_weighted(model, 1.0)
        lying = OptimizationResult(
            policy=honest.policy,
            metrics=dataclasses.replace(
                honest.metrics,
                average_power=honest.metrics.average_power * 1.05,
            ),
            weight=honest.weight,
        )
        path = tmp_path / "artifact.json"
        save_artifact(compile_artifact(model, lying, version=1), path)
        code = main(["certify", "--capacity", "3", "--artifact", str(path)])
        assert code == EXIT_CERTIFICATION == 14
        out = capsys.readouterr().out
        assert "verdict: failed" in out
        assert "claimed-gain-mismatch" in out

    def test_certification_error_maps_to_14(self):
        from repro import errors
        from repro.cli import exit_code_for

        assert exit_code_for(errors.CertificationError("x")) == 14
        assert exit_code_for(errors.CertificationFailedError("x")) == 14
        # Still more specific than the family root.
        assert exit_code_for(errors.ReproError("x")) == 9


class TestValidateUnichain:
    def test_opt_in_sweep_reports_ok(self, capsys):
        assert main([
            "validate", "--unichain", "--unichain-budget", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "unichain: ok" in out
        assert "sampled" in out

    def test_json_carries_unichain_block(self, capsys):
        import json

        assert main([
            "validate", "--unichain", "--unichain-budget", "20", "--json",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["unichain"]["ok"] is True
        assert doc["unichain"]["n_policies_checked"] == 20
        assert doc["unichain"]["exhaustive"] is False

    def test_without_flag_no_sweep(self, capsys):
        assert main(["validate"]) == 0
        assert "unichain: " not in capsys.readouterr().out
