"""Order statistics and failure counting for the pipeline benchmark.

Percentiles use the nearest-rank definition on the sorted samples, so a
reported value is always one that was measured. A tail percentile is
only trustworthy when enough samples lie beyond it: :data:`MIN_BEYOND`
samples above its rank, so p95 needs >= 200 samples and p99 >= 1000.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Sequence

#: Samples that must lie strictly above a reported tail percentile.
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest rank of the *q*-th percentile among *n* samples."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    # The epsilon keeps q/100 * n from rounding up past an exact rank
    # (0.95 * 200 is 190.00000000000003 in binary floating point).
    return max(1, math.ceil(q / 100.0 * n - 1e-9))


def beyond(n: int, q: float) -> int:
    """How many of *n* samples lie above the *q*-th percentile's rank."""
    return n - rank(n, q)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile of *values*."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


def tail(values: Sequence[float], q: float) -> Dict:
    """The *q*-th percentile with its sample count and support.

    The record states how many samples lie beyond the percentile and
    whether that meets :data:`MIN_BEYOND`, so an output never presents
    a tail estimate as better founded than it is.
    """
    n = len(values)
    return {
        "value": percentile(values, q),
        "n": n,
        "percentile": q,
        "beyond": beyond(n, q),
        "meets_min_beyond": beyond(n, q) >= MIN_BEYOND,
    }


class Outcomes:
    """Attempts and failures of one kind of operation, with reasons.

    Every attempt is recorded -- a failure never aborts the run -- and
    the error rate is failures over attempts.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: "Counter[str]" = Counter()

    def record(self, ok: bool, reason: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason or "unspecified"] += 1

    def record_many(self, attempted: int, failures: "List[str]") -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.reasons.update(failures)

    @property
    def rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def to_dict(self) -> Dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "error_rate": self.rate,
            "reasons": dict(self.reasons),
        }
