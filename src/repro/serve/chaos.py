"""Seeded fault injection for the serving runtime.

The chaos harness drives :mod:`repro.serve` through every failure the
design claims to survive -- solver crashes, hangs, NaN policies,
artifact corruption, drift storms -- deterministically (every choice
flows from an explicit seed), so a CI failure replays locally from the
seed alone. Three pieces:

- :class:`ChaosSolver` -- an injectable solve callable for the
  supervisor whose outcome per call is scripted or seeded: ``"ok"``
  (the real pipeline), ``"crash"`` (typed :class:`SolverError`),
  ``"hang"`` (sleeps past the supervisor's attempt timeout), ``"nan"``
  (a structurally valid result whose metrics are non-finite -- must be
  caught by artifact compilation, not served).
- :class:`ChaosPlan` -- the soak-loop hooks: a piecewise-constant
  drift storm over the true arrival rate, plus seeded on-disk artifact
  corruption and reload probes that assert corrupt files are rejected
  with typed errors while serving continues.
- :func:`case` -- one seeded soak of the paper's system under both,
  the ``chaos`` campaign of :mod:`repro.robust.campaign`::

      python -m repro.robust.campaign chaos --count 3 --duration 20000
"""

from __future__ import annotations

import dataclasses
import math
import random
import tempfile
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.dpm.adaptive import solve_rated
from repro.dpm.presets import paper_system
from repro.dpm.system import PowerManagedSystemModel
from repro.errors import ArtifactError, SolverError
from repro.serve.artifact import ArtifactStore, validate_artifact
from repro.serve.server import ServingRuntime
from repro.serve.supervisor import CircuitBreaker, RetryPolicy

#: Outcomes a :class:`ChaosSolver` knows how to inject.
OUTCOMES = ("ok", "crash", "hang", "nan")


class ChaosSolver:
    """A supervisor ``solve`` callable with scripted/seeded failures.

    Parameters
    ----------
    base_model, weight:
        The real solve used for ``"ok"`` (and ``"nan"``) outcomes, via
        :func:`repro.dpm.adaptive.solve_rated`.
    script:
        Explicit outcome sequence consumed call by call; after it is
        exhausted every call is ``"ok"``. Mutually exclusive with
        *probabilities*.
    probabilities:
        Mapping outcome → probability for seeded sampling (missing
        mass is ``"ok"``); requires *seed*.
    seed:
        Seed for the probability sampler.
    hang_sleep:
        Wall-clock seconds a ``"hang"`` outcome blocks -- must exceed
        the supervisor's ``attempt_timeout`` to register as a hang
        (the supervisor abandons the attempt; without a timeout a hang
        would block forever, so configure one).
    """

    def __init__(
        self,
        base_model: PowerManagedSystemModel,
        weight: float,
        script: "Optional[Sequence[str]]" = None,
        probabilities: "Optional[Dict[str, float]]" = None,
        seed: "Optional[int]" = None,
        hang_sleep: float = 0.2,
    ) -> None:
        if script is not None and probabilities is not None:
            raise ValueError("pass script or probabilities, not both")
        if probabilities is not None and seed is None:
            raise ValueError("seeded probabilities need an explicit seed")
        for outcome in list(script or []) + list(probabilities or {}):
            if outcome not in OUTCOMES:
                raise ValueError(f"unknown chaos outcome {outcome!r}")
        self.base_model = base_model
        self.weight = float(weight)
        self.hang_sleep = float(hang_sleep)
        self._script: "List[str]" = list(script or [])
        self._probabilities = dict(probabilities or {})
        self._rng = random.Random(seed)
        self.outcomes: "List[str]" = []

    def _next_outcome(self) -> str:
        if self._script:
            return self._script.pop(0)
        if self._probabilities:
            roll = self._rng.random()
            cumulative = 0.0
            for outcome, p in sorted(self._probabilities.items()):
                cumulative += p
                if roll < cumulative:
                    return outcome
        return "ok"

    def __call__(self, rate: float, initial_policy=None):
        outcome = self._next_outcome()
        self.outcomes.append(outcome)
        if outcome == "crash":
            raise SolverError(
                "injected solver crash", diagnostics={"reason": "chaos"}
            )
        if outcome == "hang":
            time.sleep(self.hang_sleep)
            raise SolverError(
                "injected hang outlived its abandonment",
                diagnostics={"reason": "chaos-hang"},
            )
        result = solve_rated(
            self.base_model, rate, self.weight, initial_policy=initial_policy
        )
        if outcome == "nan":
            poisoned = dataclasses.replace(
                result.metrics, average_power=math.nan
            )
            return dataclasses.replace(result, metrics=poisoned)
        return result


class ChaosPlan:
    """Soak-loop hooks: drift storm + artifact corruption/reload probes.

    The true arrival rate is piecewise constant: segment ``i`` of
    length *storm_period* runs at ``base_rate * factor_i`` with factors
    drawn from :attr:`FACTORS` ``= (low, high)`` by a dedicated seeded RNG
    (log-uniform, so up- and down-drifts are symmetric). That is the
    drift storm: it moves the estimator, the estimator moves the
    detector, and the detector forces re-solves against whatever the
    :class:`ChaosSolver` throws at them.

    On each arrival the plan may also (with seeded probability)
    corrupt the on-disk artifact in place -- flip a byte, truncate, or
    replace with garbage -- and, independently, probe a reload: try to
    load + validate the stored file the way a restarting process
    would. A corrupt file must produce a typed :class:`ArtifactError`
    (counted in :attr:`reload_rejections`); anything else escapes and
    fails the harness.
    """

    FACTORS = (0.4, 2.5)

    def __init__(
        self,
        base_rate: float,
        seed: int = 0,
        storm_period: float = 10.0,
        corrupt_probability: float = 0.0,
        reload_probability: float = 0.0,
    ) -> None:
        if base_rate <= 0:
            raise ValueError(f"base_rate must be positive, got {base_rate}")
        if storm_period <= 0:
            raise ValueError(
                f"storm_period must be positive, got {storm_period}"
            )
        self.base_rate = float(base_rate)
        self.storm_period = float(storm_period)
        self._log_low, self._log_high = map(math.log, self.FACTORS)
        self._factor_rng = random.Random(seed ^ 0x5EED)
        self._factors: "List[float]" = []
        self.corrupt_probability = float(corrupt_probability)
        self.reload_probability = float(reload_probability)
        self.corruptions = 0
        self.reload_attempts = 0
        self.reload_rejections = 0
        self.reload_successes = 0

    def _factor(self, segment: int) -> float:
        while len(self._factors) <= segment:
            u = self._factor_rng.random()
            self._factors.append(
                math.exp(self._log_low + u * (self._log_high - self._log_low))
            )
        return self._factors[segment]

    def rate_at(self, vt: float) -> float:
        """The true arrival rate at virtual time *vt*."""
        return self.base_rate * self._factor(int(vt // self.storm_period))

    def on_arrival(self, runtime, vt: float, rng: random.Random, report) -> None:
        """Per-arrival chaos: maybe corrupt the store, maybe probe it."""
        if (
            self.corrupt_probability > 0
            and rng.random() < self.corrupt_probability
        ):
            if self._corrupt(runtime.store, rng):
                self.corruptions += 1
        if (
            self.reload_probability > 0
            and rng.random() < self.reload_probability
        ):
            self._probe_reload(runtime)

    def _corrupt(self, store, rng: random.Random) -> bool:
        path = store.path
        if not path.exists():
            return False
        data = bytearray(path.read_bytes())
        style = rng.randrange(3)
        if style == 0 and data:  # flip one byte
            i = rng.randrange(len(data))
            data[i] ^= 0xFF
            path.write_bytes(bytes(data))
        elif style == 1:  # truncate (torn write)
            path.write_bytes(bytes(data[: len(data) // 2]))
        else:  # replace with garbage
            path.write_bytes(bytes(rng.getrandbits(8) for _ in range(64)))
        return True

    def _probe_reload(self, runtime) -> None:
        """Load + validate the stored artifact like a restart would.

        Only a typed :class:`ArtifactError` (or a clean admit) is
        acceptable; serving state is only touched on a clean admit.
        Before the first save (a bootstrap on the heuristic rung) there
        is nothing to probe, and no attempt is counted.
        """
        if not runtime.store.path.exists():
            return
        self.reload_attempts += 1
        try:
            validate_artifact(runtime.store.load(), runtime.base_model)
        except ArtifactError:
            self.reload_rejections += 1
            return
        self.reload_successes += 1


def case(seed: int, duration: float = 20000.0) -> "Dict[str, Any]":
    """The campaign case at *seed* (:mod:`repro.robust.campaign`): a
    *duration*-second soak of the paper's system (Q = 5, lambda = 1/6,
    w = 1) under a :class:`ChaosSolver` and a :class:`ChaosPlan`, all
    drawn from *seed*.

    Violations: a decision that contradicts its admitted artifact, no
    decision at all, or a reload probe that ended neither in a typed
    rejection nor in a clean admit. Ending degraded is an outcome.
    """
    model = paper_system(arrival_rate=1 / 6, capacity=5)
    solve = ChaosSolver(
        model, 1.0, probabilities={"crash": 0.25, "hang": 0.05, "nan": 0.15},
        seed=seed, hang_sleep=0.15,
    )
    plan = ChaosPlan(
        model.requestor.rate, seed=seed, storm_period=max(duration / 8, 1.0),
        corrupt_probability=0.01, reload_probability=0.02,
    )
    with tempfile.TemporaryDirectory(prefix="chaos-store-") as store:
        runtime = ServingRuntime(
            model, 1.0, ArtifactStore(store), solve=solve, attempt_timeout=0.05,
            retry=RetryPolicy(attempts=3, base_delay=0.01),
            breaker=CircuitBreaker(failure_threshold=3, reset_timeout=0.1),
        )
        runtime.bootstrap()
        report = runtime.soak(duration, seed=seed, chaos=plan)
    soak = report.to_dict()
    soak["chaos"] = {"solver_outcomes": solve.outcomes, **{
        name: getattr(plan, name) for name in (
            "corruptions", "reload_attempts", "reload_rejections",
            "reload_successes")}}
    probed = plan.reload_rejections + plan.reload_successes
    checks = [
        (report.selfcheck_violations, f"{report.selfcheck_violations} "
         "decision(s) inconsistent with the admitted artifact"),
        (report.decisions == 0, "no decision was served"),
        (plan.reload_attempts != probed, f"{plan.reload_attempts} reload "
         f"probes but {probed} ended typed or clean"),
    ]
    return {"outcome": report.final_status["health"], "soak": soak,
            "violations": [message for failed, message in checks if failed]}
