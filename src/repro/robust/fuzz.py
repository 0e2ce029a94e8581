"""Deterministic adversarial-model fuzzing for the whole pipeline.

The enforced invariant: *every run ends in a correct solution or a
typed* :mod:`repro.errors` *exception -- never NaN, never a silent
wrong answer, never a hang.* Each generated model is pushed through

1. the admission gate (:func:`repro.robust.admission.admit_model`,
   level ``"full"``),
2. policy iteration on the compiled and reference backends,
   cross-checked bit-for-bit, then the sparse (CSR) backend -- which
   must reproduce the compiled gain whenever it returns -- and, for
   small models, the matrix-free Kronecker backend via
   ``KroneckerCTMDP.from_ctmdp`` (typed failures on degenerate models
   are recorded for both, non-finite results are violations),
3. value iteration (where the stiffness diagnostics say it can
   converge in bounded time),
4. the event-driven simulator executing the solved policy,

under the solvers' wall-clock budgets, collecting any invariant
violation into a machine-readable record. The cases are seeded and
cycle through adversarial kinds: zero/near-zero rates, extreme
magnitudes (tiny, huge, stiffness up to 1e12), capacity-1 and
unconstrained (action-validity-violating) systems, near-duplicate
actions, disconnected and absorbing raw chains, NaN costs, and
perturbations of the paper's own preset.

Every case is reconstructible from its JSON ``spec`` alone. The
``fuzz`` campaign of :mod:`repro.robust.campaign` runs :func:`case`
over a seed range and writes a reproducer for every violation::

    python -m repro.robust.campaign fuzz --count 200
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

import numpy as np

from repro.errors import ReproError
from repro.robust.admission import admit_model

#: Adversarial generation kinds; the case at seed ``s`` is of kind
#: ``KINDS[s % len(KINDS)]``.
KINDS = (
    "baseline",
    "tiny_rates",
    "huge_rates",
    "stiff",
    "near_zero_service",
    "capacity_one",
    "unconstrained",
    "near_duplicate_actions",
    "disconnected_chain",
    "absorbing",
    "nan_cost",
    "paper_perturbed",
)

#: Value iteration only runs when the admission diagnostics bound its
#: sweep count: iterations scale with the stiffness ratio.
VI_STIFFNESS_LIMIT = 1e4

#: Wall-clock budget of each solver run in a case, and the requests the
#: simulator serves with the solved policy.
TIME_BUDGET_S = 10.0
N_REQUESTS = 150


def unconstrained_system(provider, requestor, capacity: int):
    """Build a :class:`PowerManagedSystemModel` with all constraints off.

    The paper engineers constraints (1)-(3) precisely so that every
    admissible policy keeps the joint chain unichain; dropping them
    produces models that are *reducible under some admissible policy*
    -- the adversarial input the verification sweep and the solvers'
    cycle/singularity guards must catch. Implemented as a subclass
    whose :meth:`is_valid_action` accepts every known mode.
    """
    from repro.dpm.system import PowerManagedSystemModel

    class _Unconstrained(PowerManagedSystemModel):
        def is_valid_action(self, state, action):  # noqa: D401
            return action in self.provider.modes

    return _Unconstrained(provider, requestor, capacity)


# -- spec generation ---------------------------------------------------------

def _random_provider_spec(
    rng: np.random.Generator,
    rate_magnitude: float = 1.0,
    stiffness: float = 1.0,
    n_modes: Optional[int] = None,
    duplicate: bool = False,
) -> "Dict[str, Any]":
    n = int(n_modes if n_modes is not None else rng.integers(2, 5))
    chi = rate_magnitude * rng.uniform(0.5, 2.0, size=(n, n))
    # Spread the switching rates across the requested stiffness range.
    if stiffness > 1.0:
        exponents = rng.uniform(0.0, np.log10(stiffness), size=(n, n))
        chi = chi / (10.0 ** exponents)
    mu = np.zeros(n)
    n_active = int(rng.integers(1, n))
    mu[:n_active] = rate_magnitude * rng.uniform(0.2, 1.5, size=n_active)
    power = rng.uniform(0.0, 3.0, size=n)
    power[:n_active] += 1.0
    ene = rng.uniform(0.0, 2.0, size=(n, n))
    if duplicate and n >= 3:
        chi[:, 1] = chi[:, 2]
        chi[1, :] = chi[2, :]
        mu[1] = mu[2]
        power[1] = power[2]
        ene[:, 1] = ene[:, 2]
        ene[1, :] = ene[2, :]
    return {
        "modes": [f"m{i}" for i in range(n)],
        "chi": chi.tolist(),
        "mu": mu.tolist(),
        "power": power.tolist(),
        "ene": ene.tolist(),
        "self_switch_rate": float(1e4 * rate_magnitude),
    }


def generate_spec(kind: str, seed: int) -> "Dict[str, Any]":
    """The JSON-ready description of one adversarial model."""
    rng = np.random.default_rng(seed)
    spec: Dict[str, Any] = {"kind": kind, "seed": int(seed), "type": "sys"}
    if kind == "baseline":
        spec["provider"] = _random_provider_spec(rng)
        spec["lam"] = float(rng.uniform(0.05, 1.5))
        spec["capacity"] = int(rng.integers(1, 5))
    elif kind == "tiny_rates":
        mag = float(10.0 ** rng.uniform(-12, -9))
        spec["provider"] = _random_provider_spec(rng, rate_magnitude=mag)
        spec["lam"] = float(mag * rng.uniform(0.05, 1.5))
        spec["capacity"] = int(rng.integers(1, 4))
    elif kind == "huge_rates":
        mag = float(10.0 ** rng.uniform(9, 12))
        spec["provider"] = _random_provider_spec(rng, rate_magnitude=mag)
        spec["lam"] = float(mag * rng.uniform(0.05, 1.5))
        spec["capacity"] = int(rng.integers(1, 4))
    elif kind == "stiff":
        stiffness = float(10.0 ** rng.uniform(8, 12))
        spec["provider"] = _random_provider_spec(rng, stiffness=stiffness)
        spec["lam"] = float(rng.uniform(0.05, 1.5))
        spec["capacity"] = int(rng.integers(1, 4))
    elif kind == "near_zero_service":
        p = _random_provider_spec(rng)
        mu = np.asarray(p["mu"])
        mu[mu > 0] = 10.0 ** rng.uniform(-14, -10)
        p["mu"] = mu.tolist()
        spec["provider"] = p
        spec["lam"] = float(rng.uniform(0.05, 1.5))
        spec["capacity"] = int(rng.integers(1, 4))
    elif kind == "capacity_one":
        spec["provider"] = _random_provider_spec(rng)
        spec["lam"] = float(rng.uniform(0.05, 1.5))
        spec["capacity"] = 1
    elif kind == "unconstrained":
        spec["provider"] = _random_provider_spec(rng)
        spec["lam"] = float(rng.uniform(0.05, 1.5))
        spec["capacity"] = int(rng.integers(1, 3))
        spec["unconstrained"] = True
    elif kind == "near_duplicate_actions":
        spec["provider"] = _random_provider_spec(rng, n_modes=4, duplicate=True)
        spec["lam"] = float(rng.uniform(0.05, 1.5))
        spec["capacity"] = int(rng.integers(1, 4))
    elif kind == "disconnected_chain":
        spec["type"] = "ctmdp"
        # Two communicating blocks with no cross rates: reducible under
        # the only policy, so evaluation/stationary must fail typed.
        r1, r2 = rng.uniform(0.5, 2.0, size=2)
        spec["n_states"] = 4
        spec["pairs"] = [
            {"state": 0, "action": "a", "rates": [0.0, r1, 0.0, 0.0], "cost": 1.0},
            {"state": 1, "action": "a", "rates": [r1, 0.0, 0.0, 0.0], "cost": 2.0},
            {"state": 2, "action": "a", "rates": [0.0, 0.0, 0.0, r2], "cost": 3.0},
            {"state": 3, "action": "a", "rates": [0.0, 0.0, r2, 0.0], "cost": 4.0},
        ]
    elif kind == "absorbing":
        spec["type"] = "ctmdp"
        r = float(rng.uniform(0.5, 2.0))
        spec["n_states"] = 3
        spec["pairs"] = [
            {"state": 0, "action": "a", "rates": [0.0, r, 0.0], "cost": 1.0},
            {"state": 1, "action": "a", "rates": [0.0, 0.0, r], "cost": 2.0},
            {"state": 2, "action": "a", "rates": [0.0, 0.0, 0.0], "cost": 3.0},
        ]
    elif kind == "nan_cost":
        spec["type"] = "ctmdp"
        r = float(rng.uniform(0.5, 2.0))
        spec["n_states"] = 2
        spec["pairs"] = [
            # The string keeps the spec strict-JSON; float("nan") in the
            # builder restores the adversarial value.
            {"state": 0, "action": "a", "rates": [0.0, r], "cost": "nan"},
            {"state": 1, "action": "a", "rates": [r, 0.0], "cost": 1.0},
        ]
    elif kind == "paper_perturbed":
        spec["paper_base"] = True
        spec["perturb"] = float(10.0 ** rng.uniform(-3, 3))
        spec["lam"] = float(rng.uniform(0.05, 0.5))
        spec["capacity"] = int(rng.integers(2, 6))
    else:
        raise ValueError(f"unknown fuzz kind {kind!r}")
    spec["weight"] = float(rng.uniform(0.0, 5.0))
    return spec


def build_from_spec(spec: "Dict[str, Any]"):
    """Reconstruct the model object a spec describes.

    Returns ``(model, is_sys)`` where *model* is a
    :class:`PowerManagedSystemModel` or a raw CTMDP. May raise typed
    :class:`ReproError` subclasses -- construction-time rejection is a
    passing outcome for adversarial inputs.
    """
    from repro.ctmdp.model import CTMDP
    from repro.dpm.service_provider import ServiceProvider
    from repro.dpm.service_requestor import ServiceRequestor
    from repro.dpm.system import PowerManagedSystemModel

    if spec["type"] == "ctmdp":
        mdp = CTMDP(list(range(spec["n_states"])))
        for pair in spec["pairs"]:
            mdp.add_action(
                pair["state"], pair["action"],
                rates=np.asarray(pair["rates"], dtype=float),
                cost_rate=float(pair["cost"]),
            )
        return mdp, False
    if spec.get("paper_base"):
        from repro.dpm.presets import paper_service_provider

        base = paper_service_provider()
        factor = spec["perturb"]
        chi = np.array([
            [base.switching_rate(a, b) if a != b else 0.0
             for b in base.modes] for a in base.modes
        ])
        provider = ServiceProvider(
            base.modes,
            chi * factor,
            [base.service_rate(m) * factor for m in base.modes],
            [base.power_rate(m) for m in base.modes],
            np.array([[base.switching_energy(a, b) for b in base.modes]
                      for a in base.modes]),
        )
        requestor = ServiceRequestor(spec["lam"] * factor)
        return PowerManagedSystemModel(provider, requestor, spec["capacity"]), True
    p = spec["provider"]
    provider = ServiceProvider(
        p["modes"],
        np.asarray(p["chi"], dtype=float),
        np.asarray(p["mu"], dtype=float),
        np.asarray(p["power"], dtype=float),
        np.asarray(p["ene"], dtype=float),
        self_switch_rate=p["self_switch_rate"],
    )
    requestor = ServiceRequestor(spec["lam"])
    if spec.get("unconstrained"):
        return unconstrained_system(provider, requestor, spec["capacity"]), True
    return PowerManagedSystemModel(provider, requestor, spec["capacity"]), True


# -- the driver --------------------------------------------------------------

def _finite(x) -> bool:
    return bool(np.all(np.isfinite(np.asarray(x, dtype=float))))


def run_case(spec: "Dict[str, Any]") -> "Dict[str, Any]":
    """Push one spec through admission -> PI/VI -> simulator.

    Returns a record with ``outcome`` (``solved`` / ``repaired`` /
    ``rejected`` / ``typed-error:<Exception>``) and
    ``violations`` -- a list of invariant breaches (empty = pass).
    A non-:class:`ReproError` exception is itself a violation.
    """
    from repro.ctmdp.policy_iteration import policy_iteration
    from repro.ctmdp.value_iteration import relative_value_iteration

    out: Dict[str, Any] = {
        "kind": spec.get("kind"), "seed": spec.get("seed"),
        "violations": [],
    }

    def violate(msg: str) -> None:
        out["violations"].append(msg)

    try:
        try:
            model, is_sys = build_from_spec(spec)
        except ReproError as exc:
            out["outcome"] = f"typed-error:{type(exc).__name__}"
            return out

        weight = float(spec.get("weight", 0.0))
        try:
            report = admit_model(
                model, level="full", weight=weight, raise_on_reject=False,
                sample_budget=24, seed=int(spec.get("seed", 0)),
            )
        except ReproError as exc:
            out["outcome"] = f"typed-error:{type(exc).__name__}"
            return out
        out["verdict"] = report.verdict
        json.dumps(report.to_dict())  # the report itself must export
        if report.verdict == "rejected":
            out["outcome"] = "rejected"
            return out
        mdp = report.admitted_mdp
        if mdp is None:  # entry-level reports never build
            target = (report.repaired_model
                      if report.repaired_model is not None else model)
            mdp = target.build_ctmdp(weight) if is_sys else target

        try:
            res = policy_iteration(
                mdp, max_iterations=500, time_budget_s=TIME_BUDGET_S
            )
        except ReproError as exc:
            out["outcome"] = f"typed-error:{type(exc).__name__}"
            return out

        if not _finite(res.gain):
            violate(f"non-finite gain {res.gain!r}")
        if not _finite(res.bias):
            violate("non-finite bias component")
        if not _finite(res.stationary) or np.any(res.stationary < 0):
            violate("invalid stationary distribution")
        elif abs(float(res.stationary.sum()) - 1.0) > 1e-8:
            violate(f"stationary sums to {res.stationary.sum()!r}")

        # Cross-check: the reference backend must reproduce the compiled
        # result bit-for-bit (same policy, same gain, same bias).
        try:
            ref = policy_iteration(
                mdp, max_iterations=500, backend="reference",
                time_budget_s=TIME_BUDGET_S,
            )
        except ReproError as exc:
            violate(f"reference backend diverged into {type(exc).__name__}: {exc}")
        else:
            if ref.policy.as_dict() != res.policy.as_dict():
                violate("dict-vs-compiled policy mismatch")
            if ref.gain != res.gain:
                violate(f"dict-vs-compiled gain mismatch: {ref.gain!r} != {res.gain!r}")
            if not np.array_equal(ref.bias, res.bias):
                violate("dict-vs-compiled bias mismatch")

        # Sparse (CSR) backend. A typed failure is recorded, not a
        # violation: on near-multichain models the evaluation system
        # under an intermediate policy can be singular to working
        # precision, where SuperLU and LAPACK legitimately land on
        # different members of the near-null-space family and the
        # cycle detector fires by design (seed baseline-96 is the
        # canonical reproducer). When the sparse solve does return, a
        # different optimal policy is fine (ties), but the optimal
        # gain must agree.
        try:
            sps = policy_iteration(
                mdp, max_iterations=500, backend="sparse",
                time_budget_s=TIME_BUDGET_S,
            )
        except ReproError as exc:
            out["sparse"] = f"typed-error:{type(exc).__name__}"
        else:
            if not (_finite(sps.gain) and _finite(sps.bias)
                    and _finite(sps.stationary)):
                violate("non-finite sparse backend solution")
            else:
                # Relative on the gain, plus an absolute floor: the gain
                # is a difference of O(cost)-sized quantities, so below
                # ~1e-12 x the cost scale any disagreement is just
                # double-precision cancellation noise.
                tol = 1e-6 * max(abs(res.gain), abs(sps.gain)) + 1e-12
                if abs(sps.gain - res.gain) > tol:
                    violate(
                        f"sparse gain {sps.gain!r} disagrees with "
                        f"compiled {res.gain!r}"
                    )

        # Matrix-free Kronecker backend on small models (single-axis
        # lift, so the operator numbers are exactly the CSR rows). The
        # Krylov path may legitimately fail typed on hostile chains
        # (recorded); anything non-finite or untyped is a violation.
        from repro.ctmdp.model import CTMDP as _CTMDP

        if isinstance(mdp, _CTMDP) and mdp.n_states <= 200:
            from repro.ctmdp.kron import KroneckerCTMDP

            kmdp = KroneckerCTMDP.from_ctmdp(mdp)
            try:
                kr = policy_iteration(
                    kmdp, max_iterations=500, time_budget_s=TIME_BUDGET_S
                )
            except ReproError as exc:
                out["kron"] = f"typed-error:{type(exc).__name__}"
            else:
                if not (_finite(kr.gain) and _finite(kr.bias)):
                    violate("non-finite kron backend solution")
                else:
                    # The Krylov gain carries cancellation noise at the
                    # cost scale (it is c_ref + (G h)_ref); agreement
                    # below ~1e-12 x that scale is not measurable.
                    cost_scale = float(np.max(
                        np.abs(kmdp.costs[kmdp.available]), initial=0.0
                    ))
                    tol = (1e-6 * max(abs(res.gain), abs(kr.gain))
                           + 1e-12 * max(cost_scale, 1.0))
                    if abs(kr.gain - res.gain) > tol:
                        violate(
                            f"kron gain {kr.gain!r} disagrees with "
                            f"compiled {res.gain!r}"
                        )

        stiffness = report.diagnostics.get("stiffness_ratio", np.inf)
        if stiffness < VI_STIFFNESS_LIMIT:
            try:
                vi = relative_value_iteration(
                    mdp, span_tolerance=1e-8, max_iterations=200_000,
                    time_budget_s=TIME_BUDGET_S,
                )
            except ReproError:
                pass  # a typed budget/convergence error is a valid outcome
            else:
                if not _finite(vi.gain):
                    violate(f"non-finite VI gain {vi.gain!r}")
                # VI's gain error is absolute: ~span_tolerance times the
                # uniformization rate, which can dwarf a tiny gain (e.g.
                # on canonically rescaled models).
                tol = max(
                    1e-4 * max(abs(res.gain), abs(vi.gain)),
                    1e-5 * max(float(mdp.max_exit_rate()), 1.0),
                )
                if abs(vi.gain - res.gain) > tol:
                    violate(
                        f"VI gain {vi.gain!r} disagrees with PI {res.gain!r}"
                    )

        if is_sys:
            from repro.policies import OptimalCTMDPPolicy
            from repro.sim import PoissonProcess, simulate

            try:
                sim = simulate(
                    provider=model.provider,
                    capacity=model.capacity,
                    workload=PoissonProcess(model.requestor.rate),
                    policy=OptimalCTMDPPolicy(res.policy, model.capacity),
                    n_requests=N_REQUESTS,
                    seed=int(spec.get("seed", 0)),
                )
            except ReproError as exc:
                out["sim"] = f"typed-error:{type(exc).__name__}"
            else:
                for name in ("average_power", "average_queue_length",
                             "average_waiting_time", "elapsed"):
                    v = getattr(sim, name)
                    if not _finite(v):
                        violate(f"non-finite simulator metric {name}={v!r}")

        out["outcome"] = ("repaired" if report.verdict == "repaired"
                          else "solved")
    except Exception as exc:  # noqa: BLE001 - untyped escape IS the bug
        violate(f"untyped exception {type(exc).__name__}: {exc}")
        out["outcome"] = "untyped-error"
    return out


def case(seed: int) -> "Dict[str, Any]":
    """The campaign case at *seed* (:mod:`repro.robust.campaign`): the
    spec of kind ``KINDS[seed % len(KINDS)]`` through :func:`run_case`.

    The record carries the spec, so a reproducer alone rebuilds the
    model.
    """
    spec = generate_spec(KINDS[seed % len(KINDS)], seed)
    return {"spec": spec, **run_case(spec)}
