"""Tests for the CSR sparse lowering and its Krylov solver ladder."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import repro.ctmdp.sparse as sparse_mod
from repro.certify.consensus import balance_stationary_distribution
from repro.ctmdp.compiled import compile_ctmdp
from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy import Policy, evaluate_policy
from repro.ctmdp.policy_iteration import policy_iteration
from repro.ctmdp.sparse import (
    ILU_DROP_TOL,
    ILU_FILL_FACTOR,
    KRYLOV_SERIES,
    SparseCTMDP,
    bordered_system,
    compile_sparse_ctmdp,
    solve_sparse_with_fallback,
    sparse_stationary_distribution,
)
from repro.dpm.presets import paper_system
from repro.errors import (
    InvalidModelError,
    NotIrreducibleError,
    SolverError,
)
from repro.markov.generator import stationary_distribution
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrument
from tests.test_backend_equivalence import fuzz_mdp


@pytest.fixture
def power_mdp() -> CTMDP:
    mdp = CTMDP(["up", "down"])
    mdp.add_action("up", "stay", rates=[0.0, 0.5], cost_rate=10.0)
    mdp.add_action("up", "sleep", rates=[0.0, 4.0], cost_rate=10.0,
                   impulse_costs=[0.0, 2.0])
    mdp.add_action("down", "stay", rates=[0.0, 0.0], cost_rate=1.0)
    mdp.add_action("down", "wake", rates=[5.0, 0.0], cost_rate=1.0,
                   impulse_costs=[3.0, 0.0])
    return mdp


def _paper_sparse(capacity: int) -> SparseCTMDP:
    return paper_system(capacity=capacity).build_ctmdp(
        weight=1.0, backend="sparse"
    )


def _policy_system(smdp: SparseCTMDP, sel: np.ndarray):
    """Bordered evaluation system and right-hand side of rows *sel*."""
    g_can, c_can, _ = smdp.canonical()
    return bordered_system(g_can[sel], 0), np.concatenate([-c_can[sel], [0.0]])


def _block_array_system(rows, reference_state: int):
    """The bordered system through scipy's own block constructor: the
    oracle :func:`bordered_system`'s direct assembly is pinned to."""
    n = rows.shape[0]
    gain_col = sp.csr_array(
        (np.full(n, -1.0), (np.arange(n), np.zeros(n, dtype=np.intp))),
        shape=(n, 1),
    )
    ref_row = sp.csr_array(([1.0], ([0], [reference_state])), shape=(1, n))
    return sp.block_array([[rows, gain_col], [ref_row, None]], format="csc")


def _birth_death_rows() -> SparseCTMDP:
    """A 6-state queue built pair by pair with ``add_action``, lowered
    through ``pair_table()``."""
    n = 6
    mdp = CTMDP(list(range(n)))
    for i in range(n):
        for action, speed in (("slow", 1.0), ("fast", 3.0)):
            rates = [0.0] * n
            if i + 1 < n:
                rates[i + 1] = 0.5
            if i > 0:
                rates[i - 1] = speed
            mdp.add_action(i, action, rates=rates, cost_rate=speed + i)
    return mdp.pair_table()


def _forced_direct_failure(a_csc, b):
    raise RuntimeError("forced direct failure")


class TestSparseLowering:
    def test_from_ctmdp_matches_compiled_bitwise(self, power_mdp):
        comp = compile_ctmdp(power_mdp)
        smdp = compile_sparse_ctmdp(power_mdp)
        assert smdp.states == comp.states
        assert smdp.actions == comp.actions
        np.testing.assert_array_equal(smdp.cost, comp.cost)
        np.testing.assert_array_equal(smdp.generator.toarray(), comp.generator)
        np.testing.assert_array_equal(smdp.pair_state, comp.pair_state)
        np.testing.assert_array_equal(smdp.pair_offset, comp.pair_offset)

    def test_compile_is_cached_on_the_model(self, power_mdp):
        assert compile_sparse_ctmdp(power_mdp) is compile_sparse_ctmdp(power_mdp)
        smdp = compile_sparse_ctmdp(power_mdp)
        assert compile_sparse_ctmdp(smdp) is smdp

    def test_from_coo_completes_diagonals(self):
        smdp = SparseCTMDP.from_coo(
            states=["a", "b"],
            actions=[["go"], ["back"]],
            pair_rows=np.array([0, 1]),
            cols=np.array([1, 0]),
            rates=np.array([2.0, 3.0]),
            cost=np.array([1.0, 4.0]),
        )
        np.testing.assert_array_equal(
            smdp.generator.toarray(), [[-2.0, 2.0], [3.0, -3.0]]
        )
        np.testing.assert_array_equal(smdp.exit_rates(), [2.0, 3.0])

    def test_from_coo_rejects_negative_rates(self):
        with pytest.raises(InvalidModelError):
            SparseCTMDP.from_coo(
                ["a", "b"], [["go"], ["back"]],
                np.array([0]), np.array([1]), np.array([-1.0]),
                np.zeros(2),
            )

    def test_from_coo_rejects_self_transitions(self):
        with pytest.raises(InvalidModelError):
            SparseCTMDP.from_coo(
                ["a", "b"], [["go"], ["back"]],
                np.array([0]), np.array([0]), np.array([1.0]),
                np.zeros(2),
            )

    def test_canonical_rescaling_is_exact(self, power_mdp):
        smdp = compile_sparse_ctmdp(power_mdp)
        g, c, shift = smdp.canonical()
        np.testing.assert_array_equal(
            g.toarray(), np.ldexp(smdp.generator.toarray(), -shift)
        )
        np.testing.assert_array_equal(c, np.ldexp(smdp.cost, -shift))

    def test_sparse_entries_row_major(self, power_mdp):
        smdp = compile_sparse_ctmdp(power_mdp)
        rows, cols, vals = smdp.sparse_entries()
        assert np.all(np.diff(rows) >= 0)
        dense = smdp.generator.toarray()
        np.testing.assert_array_equal(vals, dense[rows, cols])


class TestBorderedSystem:
    """The directly assembled CSC arrays are the ones ``sp.block_array``
    builds from the same blocks, so SuperLU gets the same input."""

    @pytest.fixture(params=["paper", "add_action", "fuzz"])
    def smdp(self, request) -> SparseCTMDP:
        if request.param == "paper":
            return _paper_sparse(10)
        if request.param == "add_action":
            return _birth_death_rows()
        return compile_sparse_ctmdp(fuzz_mdp("baseline", 0))

    @pytest.mark.parametrize("where", ["first", "interior", "last"])
    @pytest.mark.parametrize("form", ["selected", "weighted"])
    def test_arrays_equal_block_array(self, smdp, where, form):
        n = smdp.n_states
        assert n >= 3
        reference_state = {"first": 0, "interior": n // 2, "last": n - 1}[where]
        if form == "selected":
            # Policy iteration's rows: the canonical generator's pairs.
            g_can, _, _ = smdp.canonical()
            rows = g_can[smdp.pair_offset[1:] - 1]
        else:
            # The Bellman certificate's rows: policy weights @ generator.
            policy = Policy.from_actions(smdp, [a[-1] for a in smdp.actions])
            rows = (smdp.policy_weights(policy) @ smdp.generator).tocsr()
        direct = bordered_system(rows, reference_state)
        oracle = _block_array_system(rows, reference_state)
        assert direct.format == "csc"
        assert direct.shape == oracle.shape == (n + 1, n + 1)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(
                getattr(direct, name), getattr(oracle, name))
            assert getattr(direct, name).dtype == getattr(oracle, name).dtype


class TestSolverLadder:
    def bordered_system(self):
        """A small well-posed bordered evaluation system."""
        g = np.array([[-2.0, 2.0, 0.0],
                      [1.0, -3.0, 2.0],
                      [0.0, 4.0, -4.0]])
        a = np.zeros((4, 4))
        a[:3, :3] = g
        a[:3, 3] = -1.0
        a[3, 0] = 1.0
        b = np.array([1.0, 2.0, 3.0, 0.0])
        return sp.csc_array(a), b

    def test_direct_rung_solves(self):
        a, b = self.bordered_system()
        x = solve_sparse_with_fallback(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-10)

    def test_gmres_rung_meets_documented_residual(self, monkeypatch):
        """Forcing the Krylov rung still meets the residual contract."""

        def broken(a_csc, b):
            raise RuntimeError("forced direct failure")

        monkeypatch.setattr(sparse_mod, "_direct_solve", broken)
        a, b = self.bordered_system()
        x = solve_sparse_with_fallback(a, b)
        a_max = float(np.max(np.abs(a.toarray())))
        residual = np.max(np.abs(a @ x - b)) / (
            a_max * max(np.max(np.abs(x)), 1e-300)
        )
        from repro.robust.guardrails import RESIDUAL_RTOL

        assert residual <= RESIDUAL_RTOL

    def test_singular_system_raises_typed(self, monkeypatch):
        a = sp.csc_array(np.zeros((3, 3)))
        b = np.ones(3)
        with pytest.raises(SolverError) as err:
            solve_sparse_with_fallback(a, b)
        assert err.value.diagnostics["backend"] == "sparse"


class TestSparseStationary:
    def test_matches_dense(self, two_state_generator):
        p_sparse = sparse_stationary_distribution(
            sp.csr_array(two_state_generator)
        )
        p_dense = stationary_distribution(two_state_generator)
        np.testing.assert_allclose(p_sparse, p_dense, atol=1e-12)

    def test_reducible_raises(self, reducible_generator):
        with pytest.raises(NotIrreducibleError):
            sparse_stationary_distribution(sp.csr_array(reducible_generator))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidModelError):
            sparse_stationary_distribution(sp.csr_array(np.zeros((2, 3))))


class TestTransposedStationary:
    """The CSR stationary distribution is one transposed solve of the
    bordered evaluation system; it agrees to round-off with the
    separately assembled balance system of consensus's ``stationary``
    vote (:func:`balance_stationary_distribution`)."""

    @staticmethod
    def _assert_matches_balance_system(smdp: SparseCTMDP) -> None:
        result = policy_iteration(smdp, backend="sparse")
        sel = smdp.selection(result.policy)
        oracle = balance_stationary_distribution(smdp.generator[sel])
        for p in (
            result.stationary,
            smdp.stationary(sel),
            sparse_stationary_distribution(smdp.generator[sel]),
        ):
            assert np.max(np.abs(p - oracle)) <= 1e-13

    @pytest.mark.parametrize("capacity", [5, 250, 2500])
    def test_paper_sys(self, capacity):
        # 23, 1,003 and 10,003 states.
        self._assert_matches_balance_system(_paper_sparse(capacity))

    @pytest.mark.parametrize("capacity,rate,weight", [
        (20, 1 / 8, 0.0),
        (40, 1 / 6, 0.1),
        (60, 1 / 4, 0.2),
        (100, 1 / 3, 0.26),
        (250, 1 / 6, 0.28),
    ])
    def test_weight_grid_slice(self, capacity, rate, weight):
        model = paper_system(capacity=capacity, arrival_rate=rate)
        self._assert_matches_balance_system(
            model.build_ctmdp(weight, backend="sparse"))

    def test_fresh_solve_is_the_solve_of_policy_iteration(self):
        # At reference state 0 both factor the same bordered system.
        smdp = _paper_sparse(100)
        result = policy_iteration(smdp, backend="sparse")
        np.testing.assert_array_equal(
            result.stationary, smdp.stationary(smdp.selection(result.policy)))


class TestOneFactorizationPerPolicy:
    """Policy iteration and ``evaluate_policy`` read the stationary
    distribution off the LU their last evaluation built."""

    @pytest.fixture
    def splu_calls(self, monkeypatch):
        calls = []

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return splu(a, *args, **kwargs)

        monkeypatch.setattr(sparse_mod, "splu", counting)
        return calls

    def test_policy_iteration_factors_once_per_evaluation(self, splu_calls):
        smdp = _paper_sparse(100)
        with instrument(metrics=MetricsRegistry()) as ins:
            result = policy_iteration(smdp, backend="sparse")
            counter = ins.metrics.counter
            evaluations = counter("solver.sparse.direct_solves").value
            stationary_solves = counter("solver.sparse.stationary_solves").value
        # Every round but the last (unchanged) one evaluates a policy.
        assert evaluations == result.iterations >= 2
        assert len(splu_calls) == evaluations
        assert stationary_solves == 1

    def test_evaluate_policy_factors_once(self, splu_calls):
        smdp = _paper_sparse(100)
        policy = policy_iteration(smdp, backend="sparse").policy
        splu_calls.clear()
        evaluation = evaluate_policy(
            policy, backend="sparse", compute_stationary=True)
        assert len(splu_calls) == 1
        np.testing.assert_array_equal(
            evaluation.stationary, smdp.stationary(smdp.selection(policy)))

    def test_gmres_rung_leaves_a_fresh_factorization(
            self, splu_calls, monkeypatch):
        monkeypatch.setattr(sparse_mod, "_direct_solve", _forced_direct_failure)
        smdp = _paper_sparse(10)
        result = policy_iteration(smdp, backend="sparse")
        sel = smdp.selection(result.policy)
        assert len(splu_calls) == 1
        np.testing.assert_array_equal(result.stationary, smdp.stationary(sel))
        oracle = balance_stationary_distribution(smdp.generator[sel])
        assert np.max(np.abs(result.stationary - oracle)) <= 1e-13


class TestSparseEvaluation:
    def test_evaluate_policy_matches_dense(self, power_mdp):
        policy = Policy(power_mdp, {"up": "sleep", "down": "wake"})
        dense = evaluate_policy(policy)
        sparse = evaluate_policy(policy, backend="sparse")
        assert abs(dense.gain - sparse.gain) < 1e-10
        np.testing.assert_allclose(dense.bias, sparse.bias, atol=1e-9)
        np.testing.assert_allclose(
            dense.stationary, sparse.stationary, atol=1e-10
        )

    def test_randomized_policy_rejected(self, power_mdp):
        from repro.ctmdp.policy import RandomizedPolicy

        randomized = RandomizedPolicy(power_mdp, {
            "up": {"stay": 0.5, "sleep": 0.5},
            "down": {"wake": 1.0},
        })
        with pytest.raises(SolverError):
            evaluate_policy(randomized, backend="sparse")


class TestFailFastSingular:
    """A singular LU is a typed failure, never a Krylov rescue."""

    def _singular_selection(self, smdp):
        # State 4 has a single action, so its row index + 1 is state 5's
        # first row: two identical rows make the system singular.
        sel = smdp.pair_offset[:-1].copy()
        assert smdp.pair_offset[5] - smdp.pair_offset[4] == 1
        sel[4] += 1
        return sel

    def test_singular_selection_raises_typed(self):
        smdp = _paper_sparse(capacity=30)
        a, b = _policy_system(smdp, self._singular_selection(smdp))
        metrics = MetricsRegistry()
        with instrument(metrics=metrics):
            with pytest.raises(SolverError) as err:
                solve_sparse_with_fallback(
                    a, b, context={"reference_state": 0}
                )
        diagnostics = err.value.diagnostics
        assert diagnostics["reason"] == "singular_system"
        assert diagnostics["backend"] == "sparse"
        assert diagnostics["reference_state"] == 0
        assert KRYLOV_SERIES not in metrics.to_dict()  # GMRES never ran

    def test_disabled_direct_rung_still_reaches_gmres(self, monkeypatch):
        # Only SuperLU's own singular signal fails fast; any other
        # direct-rung failure keeps the Krylov rescue.
        monkeypatch.setattr(sparse_mod, "_direct_solve", _forced_direct_failure)
        smdp = _paper_sparse(capacity=10)
        a, b = _policy_system(smdp, smdp.pair_offset[:-1])
        metrics = MetricsRegistry()
        with instrument(metrics=metrics):
            solve_sparse_with_fallback(a, b)
        rows = metrics.to_dict()[KRYLOV_SERIES]["records"]
        assert [r["rung"] for r in rows] == ["gmres"]


class TestIluKnobs:
    def test_constants_are_the_documented_values(self):
        assert ILU_DROP_TOL == 1e-6
        assert ILU_FILL_FACTOR == 10.0

    def test_knobs_recorded_in_gmres_series_row(self, monkeypatch):
        monkeypatch.setattr(sparse_mod, "_direct_solve", _forced_direct_failure)
        smdp = _paper_sparse(capacity=10)
        a, b = _policy_system(smdp, smdp.pair_offset[:-1])
        metrics = MetricsRegistry()
        with instrument(metrics=metrics):
            solve_sparse_with_fallback(a, b)
        rows = metrics.to_dict()[KRYLOV_SERIES]["records"]
        (gmres_row,) = [r for r in rows if r["rung"] == "gmres"]
        assert gmres_row["preconditioner"] == "ilu"
        assert gmres_row["ilu_drop_tol"] == ILU_DROP_TOL
        assert gmres_row["ilu_fill_factor"] == ILU_FILL_FACTOR

    def test_knobs_in_solver_error_diagnostics(self, monkeypatch):
        monkeypatch.setattr(sparse_mod, "_direct_solve", _forced_direct_failure)
        # A singular system defeats both rungs.
        a = sp.csc_array(np.zeros((3, 3)))
        with pytest.raises(SolverError) as err:
            solve_sparse_with_fallback(a, np.ones(3))
        assert err.value.diagnostics["preconditioner"] in ("ilu", "jacobi")
