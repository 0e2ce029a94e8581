"""Each array tier's policy-iteration optimum against independent oracles.

The dense, CSR and Kronecker tiers run one policy-iteration loop, so
their agreement checks only each tier's linear algebra. The loop itself
is checked here against oracles that share no code with it: the LP
duality certificate (HiGHS on the occupation-measure LP) and the exact
``Fraction`` re-verification of the optimum's induced chain.
"""

from __future__ import annotations

import pytest

from repro.certify.duality import check_lp
from repro.certify.engine import DEFAULT_TOLERANCE
from repro.certify.exact import check_exact
from repro.ctmdp.kron import KroneckerCTMDP, kron_farm_model
from repro.ctmdp.policy import Policy
from repro.ctmdp.policy_iteration import policy_iteration
from repro.errors import SolverError
from tests.test_backend_equivalence import FUZZ_MODELS, fuzz_mdp, paper_mdp


def _farm():
    kmdp = kron_farm_model(3, 3)  # 4^3 = 64 states
    return kmdp.to_ctmdp(), kmdp


def _wrapped(make):
    def build():
        mdp = make()
        return mdp, KroneckerCTMDP.from_ctmdp(mdp)

    return build


#: ``id -> () -> (dict model, Kronecker model)``.
CASES = {
    "paper": _wrapped(paper_mdp),
    **{
        f"{kind}-{seed}": _wrapped(lambda kind=kind, seed=seed: fuzz_mdp(kind, seed))
        for kind, seed in FUZZ_MODELS
    },
    "farm-3x3": _farm,
}


@pytest.fixture(scope="module", params=list(CASES))
def case(request):
    return CASES[request.param]()


@pytest.mark.parametrize("tier", ["compiled", "sparse", "kron"])
def test_optimum_passes_lp_and_exact(case, tier):
    mdp, kmdp = case
    if tier == "kron":
        try:
            result = policy_iteration(kmdp)
        except SolverError as exc:
            # The unpreconditioned matrix-free Krylov path may refuse a
            # hostile model with a typed error (same rule as the
            # backend-equivalence suite).
            pytest.skip(f"kron backend returned typed error: {exc}")
    else:
        result = policy_iteration(mdp, backend=tier)
    policy = Policy(mdp, result.policy.as_dict())
    scale = max(1.0, abs(result.gain))
    for check in (check_lp, check_exact):
        outcome = check(mdp, policy, result.gain, DEFAULT_TOLERANCE, scale)
        assert outcome.status == "passed", (check.__name__, outcome.findings)
