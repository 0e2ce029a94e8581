"""The one solve ladder every tier's evaluation solves run through.

:class:`repro.robust.guardrails.Ladder` holds the accept -> fall back ->
typed-error logic once; the dense, CSR and Kronecker tiers supply only
their rungs and acceptance tests. These tests pin the ladder's contract
on synthetic rungs -- the first finite solution within
``RESIDUAL_RTOL`` wins, a singular report stops the ladder, exhaustion
is one typed error -- and that every tier's solves reach it.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

import repro.ctmdp.kron as kron_mod
from repro.ctmdp.compiled import compile_ctmdp
from repro.ctmdp.discounted import _evaluate_discounted
from repro.ctmdp.kron import KroneckerCTMDP, kron_farm_model
from repro.ctmdp.policy import Policy
from repro.ctmdp.sparse import compile_sparse_ctmdp
from repro.dpm.presets import paper_system
from repro.errors import SolverError
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrument
from repro.obs.trace import Tracer
from repro.robust.faultinject import NumericalFaultPlan, inject_numerical
from repro.robust.guardrails import (
    RESIDUAL_RTOL,
    Ladder,
    Rung,
    SingularSystem,
)

SERIES = "test.ladder.residuals"

LADDER = Ladder(
    "test",
    (
        Rung("direct", "the direct rung", "test.direct"),
        Rung("gmres", "the Krylov rung", "test.gmres"),
    ),
    logging.getLogger("repro.test.ladder"),
    span="test_solve",
    series=SERIES,
    failure_counter="test.failures",
)


def rung(x=None, error=None, calls=None, trajectory=(), details=None):
    """A synthetic rung returning *x* (or raising *error*)."""

    def solve(callback, info):
        if calls is not None:
            calls.append(1)
        if callback is not None:
            for norm in trajectory:
                callback(norm)
        info.update(details or {})
        if error is not None:
            raise error
        return np.asarray(x, dtype=float)

    return solve


def residual_of(x):
    """Acceptance test: the candidate's first entry is its residual."""
    return float(x[0]), x


class TestLadderContract:
    def test_first_accepted_rung_wins(self):
        later = []
        registry, tracer = MetricsRegistry(), Tracer()
        with instrument(metrics=registry, tracer=tracer):
            x = LADDER.solve(
                (rung([0.0, 1.0]), rung([0.0, 2.0], calls=later)),
                residual_of, what="unit",
            )
        assert x.tolist() == [0.0, 1.0]
        assert not later
        assert registry.counter("test.direct").value == 1
        (row,) = registry.series(SERIES).records
        assert row["rung"] == "direct"
        assert row["reason"] == "direct residual within tolerance"
        assert row["residuals"] == [0.0] and row["iterations"] == 0
        (span,) = tracer.records
        assert span.name == "test_solve"
        assert span.attrs["rung"] == "direct"

    def test_rejected_rung_hands_over_with_reason(self, caplog):
        registry = MetricsRegistry()
        with caplog.at_level(logging.INFO, logger="repro.test.ladder"):
            with instrument(metrics=registry):
                x = LADDER.solve(
                    (rung([1.0]),
                     rung([1e-9], trajectory=(0.5, 0.25),
                          details={"gmres_info": 0})),
                    residual_of, what="unit",
                )
        assert x.tolist() == [1e-9]
        (row,) = registry.series(SERIES).records
        assert row["rung"] == "gmres"
        assert row["reason"] == f"direct residual 1 > {RESIDUAL_RTOL:g}"
        assert row["residuals"] == [0.5, 0.25] and row["iterations"] == 2
        assert row["gmres_info"] == 0
        assert registry.counter("test.gmres").value == 1
        assert "test solve fell back to the Krylov rung" in caplog.text

    def test_raising_rung_hands_over(self):
        registry = MetricsRegistry()
        with instrument(metrics=registry):
            LADDER.solve(
                (rung(error=RuntimeError("no factor")), rung([0.0])),
                residual_of, what="unit",
            )
        (row,) = registry.series(SERIES).records
        assert row["reason"] == "no factor"

    def test_non_finite_solution_rejected_without_acceptance_test(self):
        seen = []

        def accept(x):
            seen.append(x)
            return 0.0, x

        LADDER.solve((rung([np.nan]), rung([0.0])), accept, what="unit")
        assert len(seen) == 1 and seen[0].tolist() == [0.0]

    def test_no_acceptance_test_takes_any_finite_solution(self):
        x = LADDER.solve((rung([5.0]), rung([6.0])), None, what="unit")
        assert x.tolist() == [5.0]

    def test_singular_report_stops_the_ladder(self):
        later = []
        registry = MetricsRegistry()
        with instrument(metrics=registry):
            with pytest.raises(SolverError) as err:
                LADDER.solve(
                    (rung(error=SingularSystem("zero pivot")),
                     rung([0.0], calls=later)),
                    residual_of, what="unit", context={"iteration": 3},
                )
        assert not later
        diag = err.value.diagnostics
        assert diag["reason"] == "singular_system"
        assert diag["direct_error"] == "zero pivot"
        assert diag["backend"] == "test"
        assert diag["iteration"] == 3
        assert SERIES not in registry

    def test_exhaustion_is_one_typed_error(self, caplog):
        registry = MetricsRegistry()
        with caplog.at_level(logging.WARNING, logger="repro.test.ladder"):
            with instrument(metrics=registry):
                with pytest.raises(SolverError) as err:
                    LADDER.solve(
                        (rung([1.0]), rung(error=ValueError("diverged"))),
                        residual_of, what="unit",
                        context={"iteration": 3},
                        fields={"n": 1},
                        diagnose=lambda: {"rank": 0},
                    )
        diag = err.value.diagnostics
        assert diag["reason"] == "ladder_exhausted"
        assert diag["what"] == "unit"
        assert diag["residual_rtol"] == RESIDUAL_RTOL
        assert (diag["direct_error"], diag["direct_residual"]) == (None, 1.0)
        assert (diag["gmres_error"], diag["gmres_residual"]) == (
            "diverged", None
        )
        assert (diag["n"], diag["rank"], diag["iteration"]) == (1, 0, 3)
        assert registry.counter("test.failures").value == 1
        (row,) = registry.series(SERIES).records
        assert row["rung"] == "failed" and not row["converged"]
        assert row["n"] == 1
        assert "test solve ladder exhausted" in caplog.text


class TestFaultHooks:
    def test_direct_fail_fires_before_the_direct_rung_only(self):
        direct_calls = []
        plan = NumericalFaultPlan().arm("direct-fail", times=2)
        with inject_numerical(plan):
            x = LADDER.solve(
                (rung([0.0], calls=direct_calls), rung([1e-9])),
                residual_of, what="unit",
            )
        assert x.tolist() == [1e-9]
        assert not direct_calls
        assert plan.fired == {"direct-fail": 1}

    def test_krylov_stall_poisons_the_gmres_rung_only(self):
        plan = NumericalFaultPlan().arm("krylov-stall", times=2)
        with inject_numerical(plan):
            with pytest.raises(SolverError) as err:
                LADDER.solve(
                    (rung([1.0]), rung([0.0])), residual_of, what="unit",
                )
        assert plan.fired == {"krylov-stall": 1}
        assert err.value.diagnostics["gmres_residual"] == float("inf")


class TestEveryTierUsesTheLadder:
    """Each tier's evaluation solves reach :meth:`Ladder.solve`."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []
        real = Ladder.solve

        def spy(self, *args, **kwargs):
            seen.append((self.backend, kwargs["what"]))
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Ladder, "solve", spy)
        return seen

    def test_dense_tier(self, calls):
        mdp = paper_system(capacity=3).build_ctmdp(weight=1.0)
        comp = compile_ctmdp(mdp)
        sel = comp.selection()
        comp.evaluate(sel, 0)
        comp.evaluate_discounted(sel, 0.5)
        _evaluate_discounted(
            Policy(mdp, comp.policy(mdp, sel).as_dict()), 0.5
        )
        assert calls == [
            ("compiled", "policy evaluation system"),
            ("compiled", "discounted evaluation system"),
            ("compiled", "discounted evaluation system"),
        ]

    def test_sparse_tier(self, calls):
        smdp = compile_sparse_ctmdp(
            paper_system(capacity=3).build_ctmdp(weight=1.0)
        )
        sel = smdp.selection()
        smdp.evaluate(sel, 0)
        smdp.evaluate_discounted(sel, 0.5)
        assert calls == [
            ("sparse", "policy evaluation system"),
            ("sparse", "discounted evaluation system"),
        ]

    @pytest.mark.parametrize("kmdp", [
        kron_farm_model(2, 2),
        KroneckerCTMDP.from_ctmdp(
            paper_system(capacity=2).build_ctmdp(weight=1.0)
        ),
    ], ids=["farm", "from_ctmdp"])
    def test_kron_tier(self, calls, kmdp):
        sel = kmdp.selection()
        kmdp.evaluate(sel, 0)
        kmdp.evaluate_discounted(sel, 0.5)
        kmdp.stationary(sel)
        assert calls == [
            ("kron", "matrix-free policy evaluation"),
            ("kron", "matrix-free discounted evaluation"),
            ("kron", "matrix-free stationary solve"),
        ]


class TestKronAcceptance:
    """A converged GMRES exit is not enough on the Kronecker tier: the
    solution must also solve the original equations."""

    @pytest.mark.parametrize("solve", [
        lambda kmdp, sel: kmdp.evaluate(sel, 0),
        lambda kmdp, sel: kmdp.evaluate_discounted(sel, 0.5),
    ], ids=["evaluate", "evaluate_discounted"])
    def test_wrong_converged_solution_rejected(self, monkeypatch, solve):
        rng = np.random.default_rng(0)
        monkeypatch.setattr(
            kron_mod, "gmres",
            lambda operator, b, **kwargs: (rng.standard_normal(b.shape), 0),
        )
        kmdp = kron_farm_model(2, 3)
        with pytest.raises(SolverError) as err:
            solve(kmdp, kmdp.selection())
        diag = err.value.diagnostics
        assert diag["reason"] == "ladder_exhausted"
        assert diag["gmres_info"] == 0
        assert diag["gmres_residual"] > RESIDUAL_RTOL
