"""Exact-arithmetic re-verification with :mod:`fractions`.

Independent evidence source #3: every IEEE-754 double is an exact
rational, so the policy's induced chain can be re-solved in
:class:`fractions.Fraction` arithmetic with *zero* rounding error.
Gaussian elimination over the rationals either produces the exact
stationary distribution of the induced chain -- whose global balance,
non-negativity, and normalization are then checked bit-exactly -- or
proves the chain is not unichain (singular balance system).

Off-diagonal rates are the primary data; diagonals are recomputed
exactly as the negated row sum (Eqn. 2.4), since a float diagonal may
conserve only to round-off. The one necessarily approximate step is
the final comparison of the exact gain against the solver's claimed
float gain, which uses the certificate tolerance.

Cost: the lift, the elimination and the re-substitution touch only the
induced chain's nonzeros, and the elimination pivots on the sparsest
remaining equation. On the paper's 23-state SYS model (~60 nonzeros
of 529) the solve is ~260 rational operations on ~900-bit
denominators, and the whole check ~5 ms a call on a 2-core x86 host,
so the engine runs it by default below
:data:`repro.certify.engine.EXACT_STATE_LIMIT`. A nonsingular rational
system has one solution, so the result is the one any exact
elimination order gives.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Optional

import numpy as np

from repro.certify.report import CertFinding, CheckResult
from repro.dpm.verification import is_unichain


def exact_generator(generator: np.ndarray) -> "List[Dict[int, Fraction]]":
    """Lift a float generator's nonzeros to exact rationals.

    Row ``i`` maps every column holding a nonzero off-diagonal rate to
    that rate as a :class:`Fraction` (every float is rational). The
    diagonal is replaced by the exact negated sum of the row's
    off-diagonals, so the rows conserve *exactly*, not just to
    round-off; like every other zero, a zero diagonal is left out.
    """
    rows: "List[Dict[int, Fraction]]" = [{} for _ in range(generator.shape[0])]
    src, dst = np.nonzero(generator)
    rates = generator[src, dst].tolist()
    for i, j, rate in zip(src.tolist(), dst.tolist(), rates):
        if i != j:
            rows[i][j] = Fraction(rate)
    for i, row in enumerate(rows):
        diagonal = -sum(row.values())
        if diagonal:
            row[i] = diagonal
    return rows


def exact_stationary(
    rows: "List[Dict[int, Fraction]]",
) -> "Optional[List[Fraction]]":
    """Solve ``pi G = 0``, ``sum(pi) = 1`` exactly; ``None`` if singular.

    Equation ``j`` is column ``j`` of ``G`` held as ``{state:
    coefficient}``; the last is replaced by the normalization row,
    whose right-hand side sits under key ``n``. Forward elimination
    takes the columns in order and pivots on the remaining equation
    with the fewest nonzeros (ties to the lower index), which keeps
    fill -- and with it the count of big-denominator operations --
    small; exact cancellations are dropped so only nonzeros are ever
    touched. A column with no equation left to pivot on means the
    system is exactly singular. Back substitution then runs the pivots
    in reverse.
    """
    n = len(rows)
    equations: "List[Dict[int, Fraction]]" = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, rate in row.items():
            equations[j][i] = rate
    equations[n - 1] = dict.fromkeys(range(n + 1), Fraction(1))
    remaining = set(range(n))
    pivots = []
    for col in range(n):
        holders = [e for e in remaining if col in equations[e]]
        if not holders:
            return None
        p = min(holders, key=lambda e: (len(equations[e]), e))
        remaining.discard(p)
        pivot = equations[p]
        for e in holders:
            if e == p:
                continue
            target = equations[e]
            factor = target.pop(col) / pivot[col]
            for k, v in pivot.items():
                if k == col:
                    continue
                x = target.get(k, 0) - factor * v
                if x:
                    target[k] = x
                else:
                    target.pop(k, None)
        pivots.append((col, pivot))
    pi: "List[Fraction]" = [Fraction(0)] * n
    for col, pivot in reversed(pivots):
        acc = pivot.get(n, Fraction(0))
        for k, v in pivot.items():
            if k != col and k != n:
                acc -= v * pi[k]
        pi[col] = acc / pivot[col]
    return pi


def check_exact(
    mdp,
    policy,
    reference_gain: "Optional[float]",
    tolerance: float,
    scale: float,
) -> CheckResult:
    """Bit-exact certificate for the policy's induced chain."""
    findings = []
    generator = policy.generator_matrix()
    rows = exact_generator(generator)
    data: "Dict[str, Any]" = {
        "diagonal_drift": float(
            max(
                abs(float(row.get(i, 0)) - generator[i, i])
                for i, row in enumerate(rows)
            )
        ),
    }

    unichain = is_unichain(generator)
    data["unichain"] = unichain
    if not unichain:
        findings.append(
            CertFinding(
                code="not-unichain",
                message="the policy's induced chain is not unichain: its "
                "long-run average depends on the start state, so no "
                "single gain certifies it",
            )
        )

    pi = exact_stationary(rows)
    if pi is None:
        findings.append(
            CertFinding(
                code="exact-balance-violated",
                message="the exact balance system is singular -- the "
                "induced chain has no unique stationary distribution",
            )
        )
        return CheckResult(
            name="exact", status="failed", findings=findings, data=data
        )

    # Re-substitute: pi G = 0 and sum(pi) = 1 must hold *bit-exactly*.
    balance = [Fraction(0)] * len(rows)
    for p, row in zip(pi, rows):
        for j, rate in row.items():
            balance[j] += p * rate
    balance_ok = not any(balance)
    normalized = sum(pi) == 1
    nonnegative = all(p >= 0 for p in pi)
    data["balance_exact"] = balance_ok
    data["normalized_exact"] = normalized
    data["nonnegative"] = nonnegative
    if not (balance_ok and normalized and nonnegative):
        findings.append(
            CertFinding(
                code="exact-balance-violated",
                message="exact stationary re-substitution failed "
                f"(balance={balance_ok}, normalized={normalized}, "
                f"nonnegative={nonnegative})",
            )
        )

    exact_gain = sum(
        p * Fraction(float(c)) for p, c in zip(pi, policy.cost_vector())
    )
    data["exact_gain"] = float(exact_gain)
    if reference_gain is not None:
        drift = abs(float(exact_gain) - reference_gain)
        data["gain_drift"] = drift
        if drift > tolerance * scale:
            findings.append(
                CertFinding(
                    code="exact-gain-mismatch",
                    message=f"exact-arithmetic gain {float(exact_gain):.12g} "
                    f"disagrees with the claimed gain {reference_gain:.12g} "
                    f"by {drift:.3e}",
                    value=drift,
                )
            )

    status = "failed" if findings else "passed"
    return CheckResult(name="exact", status=status, findings=findings, data=data)
