"""Online arrival-rate estimation and adaptive policy re-solving.

Section III observes that "the average inter-arrival time of a given
Poisson process can be estimated within 5% error after observing 50
events", so a power manager can track a slowly-varying source and
re-derive its policy when the estimate drifts. This module provides:

- :class:`AdaptiveRateEstimator` -- a sliding-window maximum-likelihood
  estimator of the exponential rate (the reciprocal of the window's mean
  inter-arrival time);
- :class:`DriftDetector` -- hysteresis on top of the estimator: decides
  *when* the estimate has moved far enough from the rate a policy was
  solved for that a re-solve is warranted (the serving runtime's
  trigger);
- :class:`AdaptivePolicySolver` -- caches optimal policies per quantized
  rate and re-solves when the estimate leaves the current band.

The simulator-side policy that glues these to the event loop is
:class:`repro.policies.optimal.AdaptiveCTMDPPolicy`; the long-lived
serving runtime built on the detector is :mod:`repro.serve`.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.ctmdp.policy import Policy
from repro.dpm.optimizer import OptimizationResult, optimize_weighted
from repro.dpm.system import PowerManagedSystemModel
from repro.errors import InvalidModelError
from repro.obs.runtime import active as obs_active

#: Window length from the paper's 5 %-after-50-events observation.
DEFAULT_WINDOW = 50


class AdaptiveRateEstimator:
    """Sliding-window MLE of a Poisson arrival rate.

    Feed arrival timestamps via :meth:`observe_arrival`; read the
    current estimate with :meth:`rate`. The estimate is the reciprocal
    of the mean of the last ``window`` inter-arrival times -- the MLE
    for an exponential sample.

    Parameters
    ----------
    window:
        Number of inter-arrival samples retained; the paper's
        observation motivates the default of 50.
    initial_rate:
        Returned before any complete inter-arrival has been seen.
    """

    def __init__(self, window: int = DEFAULT_WINDOW, initial_rate: float = 1.0) -> None:
        if window < 1:
            raise InvalidModelError(f"window must be >= 1, got {window}")
        if initial_rate <= 0:
            raise InvalidModelError(f"initial rate must be positive, got {initial_rate}")
        self._window = int(window)
        self._initial_rate = float(initial_rate)
        self._samples: Deque[float] = deque(maxlen=self._window)
        self._sum = 0.0
        self._last_arrival: Optional[float] = None

    def observe_arrival(self, timestamp: float) -> None:
        """Record one arrival at absolute time *timestamp* (non-decreasing)."""
        if self._last_arrival is not None:
            gap = timestamp - self._last_arrival
            if gap < 0:
                raise InvalidModelError(
                    f"arrival timestamps must be non-decreasing "
                    f"({timestamp} after {self._last_arrival})"
                )
            if len(self._samples) == self._window:
                self._sum -= self._samples[0]
            self._samples.append(gap)
            self._sum += gap
        self._last_arrival = timestamp

    @property
    def n_samples(self) -> int:
        return len(self._samples)

    @property
    def warmed_up(self) -> bool:
        """True once a full window of samples has been observed."""
        return len(self._samples) == self._window

    def rate(self) -> float:
        """Current rate estimate (``window / sum of gaps``)."""
        if not self._samples or self._sum <= 0:
            return self._initial_rate
        return len(self._samples) / self._sum

    def mean_interarrival(self) -> float:
        return 1.0 / self.rate()


class DriftDetector:
    """Decide when an estimated rate has drifted from a reference rate.

    Raw rate estimates are noisy -- the paper's own 5 %-after-50-events
    bound means a fresh window wobbles -- so a single excursion past the
    threshold must not trigger a (costly) re-solve. The detector
    requires ``consecutive`` successive observations beyond the relative
    ``threshold`` before reporting drift, and :meth:`rebase` resets the
    reference after a successful re-solve so the same drift is not
    reported twice.

    Parameters
    ----------
    reference_rate:
        The rate the currently served policy was solved for.
    threshold:
        Relative deviation ``|est - ref| / ref`` that counts as drifted
        (default 0.25 -- comfortably past the estimator's 5 % noise).
    consecutive:
        Number of successive beyond-threshold observations required
        before :meth:`observe` reports drift (hysteresis against
        single-window noise).
    """

    def __init__(
        self,
        reference_rate: float,
        threshold: float = 0.25,
        consecutive: int = 3,
    ) -> None:
        if reference_rate <= 0:
            raise InvalidModelError(
                f"reference rate must be positive, got {reference_rate}"
            )
        if threshold <= 0:
            raise InvalidModelError(
                f"drift threshold must be positive, got {threshold}"
            )
        if consecutive < 1:
            raise InvalidModelError(
                f"consecutive must be >= 1, got {consecutive}"
            )
        self._reference = float(reference_rate)
        self._threshold = float(threshold)
        self._consecutive = int(consecutive)
        self._streak = 0
        self._last_fraction = 0.0

    @property
    def reference_rate(self) -> float:
        return self._reference

    @property
    def threshold(self) -> float:
        return self._threshold

    @property
    def drift_fraction(self) -> float:
        """Relative deviation of the most recent observation."""
        return self._last_fraction

    def observe(self, estimated_rate: float) -> bool:
        """Feed one rate estimate; True when drift is confirmed.

        Drift is confirmed on the ``consecutive``-th successive estimate
        beyond the threshold and keeps being reported until
        :meth:`rebase` -- the caller (supervisor) owns the decision of
        when the underlying policy has actually been replaced.
        """
        if estimated_rate <= 0:
            raise InvalidModelError(
                f"estimated rate must be positive, got {estimated_rate}"
            )
        self._last_fraction = abs(estimated_rate - self._reference) / self._reference
        if self._last_fraction > self._threshold:
            self._streak += 1
        else:
            self._streak = 0
        drifted = self._streak >= self._consecutive
        if drifted:
            ins = obs_active()
            if ins.metrics is not None:
                ins.metrics.counter("serve.drift.detected").inc()
        return drifted

    def rebase(self, reference_rate: float) -> None:
        """Reset the reference after the served policy was re-solved."""
        if reference_rate <= 0:
            raise InvalidModelError(
                f"reference rate must be positive, got {reference_rate}"
            )
        self._reference = float(reference_rate)
        self._streak = 0
        self._last_fraction = 0.0


def rated_model(
    base_model: PowerManagedSystemModel, rate: float
) -> PowerManagedSystemModel:
    """A clone of *base_model* with the arrival rate replaced.

    The single re-rating primitive shared by the banded adaptive solver,
    the serving supervisor, artifact validation and certification:
    provider, capacity, transfer-state choice and ``rate_scale`` are
    preserved, only the requestor changes. The clone is never *base_model* itself, even
    at its own rate.

    The last clone is kept in a one-entry slot on *base_model*, so
    repeated calls at one rate return the *same* model -- with it its
    assembly, built CTMDPs, lowerings and row caches. One supervised
    re-solve (solve, compile, admission gate, certificate) therefore
    assembles the SYS once. A new rate replaces the slot;
    ``clear_caches()`` and pickling drop it. Models are immutable, and
    their lazy caches are computed before they are published, so
    threads sharing a clone (an attempt abandoned by the supervisor's
    watchdog beside its retry) read the same numbers.
    """
    if rate <= 0:
        raise InvalidModelError(f"rate must be positive, got {rate}")
    slot = base_model._rated
    if slot is not None and slot[0] == rate:
        return slot[1]
    sibling = PowerManagedSystemModel(
        provider=base_model.provider,
        requestor=base_model.requestor.with_rate(rate),
        capacity=base_model.capacity,
        include_transfer_states=base_model.include_transfer_states,
        rate_scale=base_model.rate_scale,
    )
    base_model._rated = (sibling.requestor.rate, sibling)
    return sibling


def solve_rated(
    base_model: PowerManagedSystemModel,
    rate: float,
    weight: float,
    solver: str = "policy_iteration",
    backend: str = "auto",
    initial_policy: "Optional[Policy]" = None,
) -> OptimizationResult:
    """Solve *base_model* re-rated to *rate*, optionally warm-started.

    The solve runs on :func:`rated_model`'s sibling, whose build later
    calls at the same rate (compile, admission, certificate) reuse.
    The seed is advisory exactly as in
    :func:`repro.dpm.optimizer.optimize_weighted`: a converged policy
    from a neighboring rate usually starts at or near its own fixed
    point (re-rating preserves the state/action space), and a harmful
    seed falls back to a cold start without changing the result.
    """
    return optimize_weighted(
        rated_model(base_model, rate),
        weight,
        solver=solver,
        backend=backend,
        initial_policy=initial_policy,
    )


class AdaptivePolicySolver:
    """Re-solves the SYS model as the estimated arrival rate drifts.

    Rates are quantized into geometric bands of relative width
    ``band_width`` so that small estimation noise does not trigger
    constant re-solving; solved policies are cached per band.

    Each band's policy-iteration solve is seeded with the most recently
    solved band's converged policy (neighboring rates share most of
    their optimal assignment). Seeds are advisory; results are
    unchanged.

    Parameters
    ----------
    base_model:
        The SYS model at its nominal rate; re-solves clone it with the
        estimated rate.
    weight:
        Performance weight of the objective.
    band_width:
        Relative width of a rate band (e.g. 0.15 means the policy is
        reused while the estimate stays within +-15 % of the band
        center).
    solver:
        Passed through to :func:`repro.dpm.optimizer.optimize_weighted`.
    backend:
        Solver backend forwarded to the optimizer (``"auto"`` default).
    """

    def __init__(
        self,
        base_model: PowerManagedSystemModel,
        weight: float,
        band_width: float = 0.15,
        solver: str = "policy_iteration",
        backend: str = "auto",
    ) -> None:
        if not 0 < band_width < 1:
            raise InvalidModelError(f"band_width must be in (0, 1), got {band_width}")
        self._base_model = base_model
        self._weight = float(weight)
        self._band_width = float(band_width)
        self._solver = solver
        self._backend = backend
        self._last_policy: "Optional[Policy]" = None
        self._cache: Dict[int, OptimizationResult] = {}
        self.n_solves = 0

    @property
    def base_model(self) -> PowerManagedSystemModel:
        return self._base_model

    @property
    def weight(self) -> float:
        return self._weight

    def _band_of(self, rate: float) -> int:
        import math

        return int(math.floor(math.log(rate) / math.log1p(self._band_width)))

    def _band_center(self, band: int) -> float:
        import math

        return math.exp((band + 0.5) * math.log1p(self._band_width))

    def policy_for_rate(self, rate: float) -> OptimizationResult:
        """The cached or freshly solved policy for an estimated *rate*."""
        if rate <= 0:
            raise InvalidModelError(f"rate must be positive, got {rate}")
        band = self._band_of(rate)
        if band not in self._cache:
            seed = (
                self._last_policy
                if self._solver == "policy_iteration"
                else None
            )
            result = solve_rated(
                self._base_model,
                self._band_center(band),
                self._weight,
                solver=self._solver,
                backend=self._backend,
                initial_policy=seed,
            )
            if isinstance(result.policy, Policy):
                self._last_policy = result.policy
            self._cache[band] = result
            self.n_solves += 1
        return self._cache[band]
