"""Continuous-time Markov decision process (CTMDP) solvers.

Implements the decision-theoretic layer of the paper:

- :mod:`repro.ctmdp.model` -- the CTMDP value type: per-state action
  sets, action-parameterized transition rates, action-dependent cost
  rates and transition (impulse) costs.
- :mod:`repro.ctmdp.policy` -- stationary deterministic (and randomized)
  policies, plus policy evaluation helpers.
- :mod:`repro.ctmdp.policy_iteration` -- Howard-style average-cost policy
  iteration in continuous time (the paper's solver, after Miller [9] and
  Howard [10]).
- :mod:`repro.ctmdp.value_iteration` -- relative value iteration on the
  uniformized chain (a baseline solver with identical fixed points).
- :mod:`repro.ctmdp.linear_program` -- the occupation-measure linear
  program of Paleologo et al. (DAC 1998) [11], the approach this paper
  compares against; also solves the *constrained* problem (min power
  s.t. delay bound) exactly, producing possibly-randomized policies.
- :mod:`repro.ctmdp.discounted` -- discounted-cost policy iteration
  (Theorem 2.2/2.3 context; used by the discount-sweep ablation).
- :mod:`repro.ctmdp.uniformization` -- CTMDP -> DTMDP conversion.
- :mod:`repro.ctmdp.compiled` -- one-shot dense lowering of a CTMDP into
  stacked NumPy arrays (cached per model); backs the default
  ``backend="compiled"`` fast paths of the solvers above.
- :mod:`repro.ctmdp.sparse` -- the CSR sparse lowering and its
  direct-then-Krylov evaluation ladder; the middle tier of the backend
  ladder, for models beyond a few hundred states.
- :mod:`repro.ctmdp.kron` -- matrix-free Kronecker-structured CTMDPs
  (factor generators, never the joint matrix); the top tier, for
  tensor-product state spaces of 10^5--10^6 states.
- :mod:`repro.ctmdp.backends` -- the ``backend=`` ladder shared by all
  solver entry points (``auto``/``compiled``/``sparse``/``kron``/
  ``reference``) and its resolution rules.
"""

from repro.ctmdp.backends import BACKENDS, DENSE_STATE_LIMIT, resolve_backend

from repro.ctmdp.compiled import CompiledCTMDP, compile_ctmdp
from repro.ctmdp.discounted import discounted_policy_iteration
from repro.ctmdp.kron import KroneckerCTMDP, kron_farm_model
from repro.ctmdp.linear_program import (
    LinearProgramResult,
    solve_average_cost_lp,
    solve_constrained_lp,
)
from repro.ctmdp.model import CTMDP, StateActionData
from repro.ctmdp.policy import Policy, PolicyEvaluation, RandomizedPolicy, evaluate_policy
from repro.ctmdp.policy_iteration import PolicyIterationResult, policy_iteration
from repro.ctmdp.sparse import (
    SparseCTMDP,
    compile_sparse_ctmdp,
    sparse_stationary_distribution,
)
from repro.ctmdp.uniformization import UniformizedMDP, uniformize_ctmdp
from repro.ctmdp.value_iteration import ValueIterationResult, relative_value_iteration

__all__ = [
    "BACKENDS",
    "CTMDP",
    "CompiledCTMDP",
    "DENSE_STATE_LIMIT",
    "KroneckerCTMDP",
    "LinearProgramResult",
    "Policy",
    "PolicyEvaluation",
    "PolicyIterationResult",
    "RandomizedPolicy",
    "SparseCTMDP",
    "StateActionData",
    "UniformizedMDP",
    "ValueIterationResult",
    "compile_ctmdp",
    "compile_sparse_ctmdp",
    "discounted_policy_iteration",
    "evaluate_policy",
    "kron_farm_model",
    "policy_iteration",
    "relative_value_iteration",
    "resolve_backend",
    "solve_average_cost_lp",
    "solve_constrained_lp",
    "sparse_stationary_distribution",
    "uniformize_ctmdp",
]
