"""Cross-backend equivalence of the solver core (dense / sparse / kron).

The backend ladder's contract: every tier returns the same optimal
policies and gains on the same model -- bit-compatible for the direct
(dense, sparse-LU) paths, within the documented Krylov residual
tolerance for the matrix-free paths. This suite pins that contract on
the paper's SYS model and on adversarial fuzzer-generated models, plus
the backend-resolution rules themselves.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.ctmdp.sparse as sparse_mod
from repro.ctmdp.backends import BACKENDS, DENSE_STATE_LIMIT, resolve_backend
from repro.ctmdp.discounted import discounted_policy_iteration
from repro.ctmdp.kron import KroneckerCTMDP, kron_farm_model
from repro.ctmdp.policy import Policy, evaluate_policy
from repro.ctmdp.policy_iteration import policy_iteration
from repro.ctmdp.value_iteration import relative_value_iteration
from repro.dpm.presets import paper_system
from repro.errors import SolverError
from repro.robust.admission import admit_model
from repro.robust.fuzz import build_from_spec, generate_spec

#: Fuzzer corpus entries that admit and solve cleanly (checked when
#: picked); regenerated deterministically from (kind, seed).
FUZZ_MODELS = (
    ("baseline", 0),
    ("capacity_one", 5),
    ("near_duplicate_actions", 7),
    ("paper_perturbed", 11),
    ("baseline", 12),
)

#: Gain agreement for Krylov-backed (kron) paths: relative, plus an
#: absolute floor at double-precision cancellation scale.
KRON_GAIN_RTOL = 1e-8


def paper_mdp(self_switch: "float | None" = None):
    model = (paper_system() if self_switch is None
             else paper_system(self_switch_rate=self_switch))
    return model.build_ctmdp(weight=1.0)


def fuzz_mdp(kind: str, seed: int):
    """Rebuild the admitted MDP exactly as the fuzzer driver does."""
    spec = generate_spec(kind, seed)
    model, is_sys = build_from_spec(spec)
    weight = float(spec.get("weight", 0.0))
    report = admit_model(
        model, level="full", weight=weight, raise_on_reject=False,
        sample_budget=24, seed=int(spec.get("seed", 0)),
    )
    assert report.verdict != "rejected", (
        f"fuzz model {kind}-{seed} no longer admits; re-pick FUZZ_MODELS"
    )
    mdp = report.admitted_mdp
    if mdp is None:
        target = (report.repaired_model
                  if report.repaired_model is not None else model)
        mdp = target.build_ctmdp(weight) if is_sys else target
    return mdp


class TestPolicyIteration:
    def test_sparse_matches_compiled_on_paper_sys(self):
        mdp = paper_mdp()
        dense = policy_iteration(mdp, backend="compiled")
        sparse = policy_iteration(mdp, backend="sparse")
        assert sparse.policy.as_dict() == dense.policy.as_dict()
        assert abs(sparse.gain - dense.gain) < 1e-10
        np.testing.assert_allclose(
            sparse.stationary, dense.stationary, atol=1e-10
        )

    def test_kron_matches_compiled_on_paper_sys(self):
        mdp = paper_mdp()
        dense = policy_iteration(mdp, backend="compiled")
        kron = policy_iteration(KroneckerCTMDP.from_ctmdp(mdp))
        assert kron.policy.as_dict() == dense.policy.as_dict()
        tol = KRON_GAIN_RTOL * max(abs(dense.gain), 1.0)
        assert abs(kron.gain - dense.gain) < tol

    @pytest.mark.parametrize("kind,seed", FUZZ_MODELS)
    def test_sparse_matches_compiled_on_fuzz_models(self, kind, seed):
        mdp = fuzz_mdp(kind, seed)
        dense = policy_iteration(mdp, backend="compiled")
        sparse = policy_iteration(mdp, backend="sparse")
        scale = max(abs(dense.gain), abs(sparse.gain), 1e-12)
        assert abs(sparse.gain - dense.gain) <= 1e-8 * scale

    @pytest.mark.parametrize("kind,seed", FUZZ_MODELS)
    def test_kron_matches_compiled_on_fuzz_models(self, kind, seed):
        mdp = fuzz_mdp(kind, seed)
        dense = policy_iteration(mdp, backend="compiled")
        try:
            kron = policy_iteration(KroneckerCTMDP.from_ctmdp(mdp))
        except SolverError as exc:
            # The unpreconditioned matrix-free Krylov path may refuse a
            # hostile model with a typed error; that satisfies the
            # backend contract (same lenient rule as the fuzzer).
            pytest.skip(f"kron backend returned typed error: {exc}")
        cost_scale = float(np.max(np.abs(dense.bias), initial=0.0))
        tol = (KRON_GAIN_RTOL * max(abs(dense.gain), abs(kron.gain))
               + 1e-12 * max(cost_scale, 1.0))
        assert abs(kron.gain - dense.gain) <= tol


class TestValueIteration:
    def test_sparse_matches_compiled(self):
        # VI needs the aperiodicity self-switch variant of the preset.
        mdp = paper_mdp(self_switch=50.0)
        dense = relative_value_iteration(mdp, span_tolerance=1e-9,
                                         backend="compiled")
        sparse = relative_value_iteration(mdp, span_tolerance=1e-9,
                                          backend="sparse")
        assert sparse.policy.as_dict() == dense.policy.as_dict()
        assert abs(sparse.gain - dense.gain) < 1e-8

    def test_kron_matches_compiled(self):
        mdp = paper_mdp(self_switch=50.0)
        dense = relative_value_iteration(mdp, span_tolerance=1e-9,
                                         backend="compiled")
        kron = relative_value_iteration(
            KroneckerCTMDP.from_ctmdp(mdp), span_tolerance=1e-9
        )
        assert kron.policy.as_dict() == dense.policy.as_dict()
        assert abs(kron.gain - dense.gain) < 1e-7


class TestDiscounted:
    @pytest.mark.parametrize("backend", ["sparse"])
    def test_backends_match_compiled(self, backend):
        mdp = paper_mdp()
        dense = discounted_policy_iteration(mdp, 0.5, backend="compiled")
        other = discounted_policy_iteration(mdp, 0.5, backend=backend)
        assert other.policy.as_dict() == dense.policy.as_dict()
        np.testing.assert_allclose(other.values, dense.values, atol=1e-8)

    def test_kron_matches_compiled(self):
        mdp = paper_mdp()
        dense = discounted_policy_iteration(mdp, 0.5, backend="compiled")
        kron = discounted_policy_iteration(
            KroneckerCTMDP.from_ctmdp(mdp), 0.5
        )
        assert kron.policy.as_dict() == dense.policy.as_dict()
        np.testing.assert_allclose(kron.values, dense.values, atol=1e-7)


class TestKronNative:
    """A genuinely tensor-structured model solved on every tier.

    ``auto`` runs the densified model on the dense tier, whose loop is
    the Kronecker tier's own; the dict ``reference`` loop is the
    independent leg.
    """

    def test_farm_model_pi_matches_dense(self):
        kmdp = kron_farm_model(3, 3)  # 4^3 = 64 states
        kron = policy_iteration(kmdp)
        for backend in ("auto", "reference"):
            dense = policy_iteration(kmdp.to_ctmdp(), backend=backend)
            assert kron.policy.as_dict() == dense.policy.as_dict()
            assert abs(kron.gain - dense.gain) < 1e-8

    def test_farm_model_vi_matches_dense(self):
        kmdp = kron_farm_model(2, 4)  # 5^2 = 25 states
        kron = relative_value_iteration(kmdp, span_tolerance=1e-9)
        for backend in ("auto", "reference"):
            dense = relative_value_iteration(
                kmdp.to_ctmdp(), span_tolerance=1e-9, backend=backend
            )
            assert kron.policy.as_dict() == dense.policy.as_dict()
            assert abs(kron.gain - dense.gain) < 1e-7

    def test_policy_keeps_a_private_copy_of_the_selection(self):
        kmdp = kron_farm_model(2, 2)
        sel = kmdp.selection()
        policy = kmdp.policy(kmdp, sel)
        direct = Policy.from_actions(kmdp, [kmdp.action_set[a] for a in sel])
        sel[0] = 1  # the caller's array stays writable ...
        # ... and the policies do not see the write.
        assert kmdp.selection(policy)[0] == kmdp.selection(direct)[0] == 0
        assert isinstance(policy.actions, tuple)
        assert not np.shares_memory(kmdp.selection(policy), sel)
        assert not np.shares_memory(kmdp.selection(direct), sel)


class TestKrylovResidualContract:
    def test_forced_gmres_rung_meets_contract(self, monkeypatch):
        """With the direct rung disabled, evaluation still holds the
        documented residual tolerance and reproduces the dense gain."""
        mdp = paper_mdp()
        dense = policy_iteration(mdp, backend="compiled")

        def broken(a_csc, b):
            raise RuntimeError("forced direct failure")

        monkeypatch.setattr(sparse_mod, "_direct_solve", broken)
        sparse = policy_iteration(mdp, backend="sparse")
        assert abs(sparse.gain - dense.gain) < 1e-6 * max(abs(dense.gain), 1.0)

    def test_accepted_solution_residual(self, monkeypatch):
        """The ladder's accepted Krylov solution satisfies the
        documented relative-residual bound on the actual system."""
        import scipy.sparse as sp

        from repro.robust.guardrails import RESIDUAL_RTOL

        def broken(a_csc, b):
            raise RuntimeError("forced direct failure")

        monkeypatch.setattr(sparse_mod, "_direct_solve", broken)
        smdp = sparse_mod.compile_sparse_ctmdp(paper_mdp())
        g_can, c_can, shift = smdp.canonical()
        sel = smdp.pair_offset[:-1]
        n = smdp.n_states
        rows = g_can[sel]
        gain_col = sp.csr_array(
            (np.full(n, -1.0), (np.arange(n), np.zeros(n, dtype=int))),
            shape=(n, 1),
        )
        ref_row = sp.csr_array(([1.0], ([0], [0])), shape=(1, n))
        a = sp.block_array([[rows, gain_col], [ref_row, None]], format="csc")
        b = np.concatenate([-c_can[sel], [0.0]])
        x = sparse_mod.solve_sparse_with_fallback(a, b)
        a_max = float(np.max(np.abs(a.data)))
        residual = float(np.max(np.abs(a @ x - b))) / (
            a_max * max(float(np.max(np.abs(x))), 1e-300)
        )
        assert residual <= RESIDUAL_RTOL


class TestBackendResolution:
    def test_backends_tuple(self):
        assert set(
            ("auto", "compiled", "sparse", "kron", "reference")
        ) == set(BACKENDS)

    def test_auto_picks_compiled_below_limit(self):
        mdp = paper_mdp()
        assert mdp.n_states <= DENSE_STATE_LIMIT
        assert resolve_backend(mdp, "auto") == "compiled"

    def test_auto_picks_sparse_above_limit(self):
        import types

        big = types.SimpleNamespace(n_states=DENSE_STATE_LIMIT + 1)
        assert resolve_backend(big, "auto") == "sparse"

    def test_kron_model_resolves_to_kron(self):
        kmdp = kron_farm_model(2, 2)
        assert resolve_backend(kmdp, "auto") == "kron"

    def test_plain_model_rejects_kron_backend(self):
        with pytest.raises(SolverError):
            resolve_backend(paper_mdp(), "kron")

    def test_unknown_backend_rejected(self):
        with pytest.raises(SolverError):
            resolve_backend(paper_mdp(), "quantum")

    def test_sys_build_rejects_kron(self):
        with pytest.raises(SolverError):
            paper_system().build_ctmdp(1.0, backend="kron")

    @pytest.mark.parametrize("backend", ["bogus", "kron"])
    def test_evaluate_policy_resolves_backend(self, backend):
        # evaluate_policy resolves like the solvers: an unknown name, or
        # a tier the plain model cannot run on, is a typed error rather
        # than a silent evaluation on the dict path.
        policy = policy_iteration(paper_mdp()).policy
        with pytest.raises(SolverError):
            evaluate_policy(policy, backend=backend)


class TestEvaluatePolicyTiers:
    """``evaluate_policy`` on each tier's lowering against the dict
    ``reference`` assembly, at the PI optimum."""

    @pytest.mark.parametrize("backend", ["compiled", "sparse", "kron"])
    def test_optimum_matches_reference(self, backend):
        if backend == "kron":
            kmdp = kron_farm_model(3, 3)
            policy = policy_iteration(kmdp).policy
            oracle = Policy(kmdp.to_ctmdp(), policy.as_dict())
        else:
            policy = oracle = policy_iteration(paper_mdp()).policy
        got = evaluate_policy(policy, backend=backend)
        ref = evaluate_policy(oracle, backend="reference")
        if backend == "compiled":
            assert got.gain == ref.gain
            np.testing.assert_array_equal(got.bias, ref.bias)
            np.testing.assert_array_equal(got.stationary, ref.stationary)
            return
        if backend == "sparse":
            tol = 1e-10
        else:
            tol = KRON_GAIN_RTOL * max(abs(ref.gain), 1.0)
        assert abs(got.gain - ref.gain) < tol
        scale = max(float(np.max(np.abs(ref.bias))), 1.0)
        np.testing.assert_allclose(got.bias, ref.bias, atol=tol * scale)
        np.testing.assert_allclose(got.stationary, ref.stationary, atol=tol)


class TestReuseEquivalence:
    """A seeded sparse solve returns exactly what a cold solve returns.

    Every round, seeded or cold, evaluates its policy with one fresh
    factorization through the same ladder, so two solves that reach the
    same policy return values from the same computation (DESIGN §12).
    The seed -- the last-listed action in every state -- sends policy
    iteration down a different improvement path than the cold start.
    """

    def _assert_identical(self, mdp):
        from repro.ctmdp.policy import Policy

        seed = Policy(mdp, {s: mdp.actions(s)[-1] for s in mdp.states})
        cold = policy_iteration(mdp, backend="sparse")
        warm = policy_iteration(mdp, backend="sparse", initial_policy=seed)
        assert seed.as_dict() != cold.policy.as_dict()
        assert warm.policy.as_dict() == cold.policy.as_dict()
        assert warm.gain == cold.gain
        np.testing.assert_array_equal(warm.bias, cold.bias)
        np.testing.assert_array_equal(warm.stationary, cold.stationary)

    def test_reuse_bit_identical_on_paper_sys(self):
        self._assert_identical(paper_mdp())

    @pytest.mark.parametrize("kind,seed", FUZZ_MODELS)
    def test_reuse_bit_identical_on_fuzz_models(self, kind, seed):
        self._assert_identical(fuzz_mdp(kind, seed))

    def test_reuse_bit_identical_under_forced_gmres(self, monkeypatch):
        # With the direct rung disabled every round runs ILU-GMRES; the
        # seeded and cold solves must still agree bit-for-bit.
        def broken(a_csc, b):
            raise RuntimeError("forced direct failure")

        monkeypatch.setattr(sparse_mod, "_direct_solve", broken)
        self._assert_identical(paper_mdp())
