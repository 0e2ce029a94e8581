"""Exact-arithmetic re-verification of a policy's induced chain.

The sparse solve is checked against oracles that share no code with
it: closed-form stationary vectors, hand-built chains with known
structure, and the dense Gauss-Jordan elimination it replaced, kept
here as the reference.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from repro.certify import exact
from repro.certify.corpus import CORRUPTION_KINDS, build_corpus
from repro.certify.engine import DEFAULT_TOLERANCE
from repro.certify.exact import check_exact, exact_generator, exact_stationary
from repro.ctmdp.policy import Policy
from repro.dpm.adaptive import rated_model
from repro.dpm.optimizer import optimize_weighted
from repro.dpm.presets import paper_system

#: The re-solve rate grid of perfbench's ``paper-serve`` workload.
PAPER_SERVE_RATES = [float(rate) for rate in np.linspace(1 / 8, 1 / 3, 12)]


def dense_stationary(generator: np.ndarray):
    """Reference: dense Gauss-Jordan over the full ``Fraction`` matrix.

    Lifts every entry (re-deriving the diagonal as the exact negated
    row sum), eliminates ``[G^T | 0]`` with its last row replaced by
    the normalization row, pivoting on the largest magnitude, and
    returns ``None`` when a column has no nonzero pivot.
    """
    n = generator.shape[0]
    rows = []
    for i in range(n):
        row = [
            Fraction(float(generator[i, j])) if j != i else Fraction(0)
            for j in range(n)
        ]
        row[i] = -sum(row)
        rows.append(row)
    a = [[rows[j][i] for j in range(n)] + [Fraction(0)] for i in range(n)]
    a[n - 1] = [Fraction(1)] * n + [Fraction(1)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot][col] == 0:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                factor = a[r][col] / a[col][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


class Chain:
    """A fixed generator and cost vector, read the way a policy is."""

    def __init__(self, generator, cost):
        self._generator = np.asarray(generator, dtype=float)
        self._cost = np.asarray(cost, dtype=float)

    def generator_matrix(self) -> np.ndarray:
        return self._generator

    def cost_vector(self) -> np.ndarray:
        return self._cost


def check(chain: Chain, gain=None):
    return check_exact(None, chain, gain, DEFAULT_TOLERANCE, 1.0)


def birth_death(birth: float, death: float, top: int) -> np.ndarray:
    generator = np.zeros((top + 1, top + 1))
    for k in range(top):
        generator[k, k + 1] = birth
        generator[k + 1, k] = death
    np.fill_diagonal(generator, -generator.sum(axis=1))
    return generator


class TestClosedForm:
    @pytest.mark.parametrize(
        "birth,death,top",
        [(0.25, 0.375, 1), (0.25, 0.375, 6), (0.75, 0.5, 9), (0.5, 0.5, 4)],
    )
    def test_birth_death_matches_geometric_law(self, birth, death, top):
        # pi_k is proportional to (birth/death)^k; dyadic rates make the
        # floats exact, so the oracle is an exact Fraction vector.
        ratio = Fraction(birth) / Fraction(death)
        weights = [ratio**k for k in range(top + 1)]
        expected = [w / sum(weights) for w in weights]
        generator = birth_death(birth, death, top)

        assert exact_stationary(exact_generator(generator)) == expected

        cost = np.arange(top + 1, dtype=float)
        gain = sum(k * p for k, p in enumerate(expected))
        result = check(Chain(generator, cost), float(gain))
        assert result.status == "passed", result.findings
        assert result.data["exact_gain"] == float(gain)
        assert result.data["diagonal_drift"] == 0.0


class TestChainStructure:
    #: States 0 and 1 are transient; {2, 3} is the one closed class,
    #: with pi_2 * 1 = pi_3 * 0.25.
    TRANSIENT = np.array(
        [
            [-3.0, 1.0, 2.0, 0.0],
            [0.0, -0.5, 0.0, 0.5],
            [0.0, 0.0, -1.0, 1.0],
            [0.0, 0.0, 0.25, -0.25],
        ]
    )

    @pytest.mark.parametrize(
        "order", [(0, 1, 2, 3), (2, 3, 0, 1), (3, 0, 2, 1)], ids=str
    )
    def test_transient_states_get_exactly_zero(self, order):
        # The orders put the transient states first, last and in the
        # normalization row's place.
        generator = self.TRANSIENT[np.ix_(order, order)]
        full = [Fraction(0), Fraction(0), Fraction(1, 5), Fraction(4, 5)]
        expected = [full[state] for state in order]

        assert exact_stationary(exact_generator(generator)) == expected

        cost = np.array([9.0, 9.0, 1.0, 2.0])[list(order)]
        result = check(Chain(generator, cost), 1.8)
        assert result.status == "passed", result.findings
        assert result.data["unichain"] is True
        assert result.data["exact_gain"] == 1.8

    def test_two_closed_classes_are_singular(self):
        generator = np.array(
            [
                [-1.0, 1.0, 0.0, 0.0],
                [2.0, -2.0, 0.0, 0.0],
                [0.0, 0.0, -3.0, 3.0],
                [0.0, 0.0, 0.5, -0.5],
            ]
        )
        assert exact_stationary(exact_generator(generator)) is None
        assert dense_stationary(generator) is None

        result = check(Chain(generator, [1.0, 2.0, 3.0, 4.0]), 1.0)
        assert result.status == "failed"
        assert [f.code for f in result.findings] == [
            "not-unichain",
            "exact-balance-violated",
        ]
        assert result.data["unichain"] is False
        assert "balance_exact" not in result.data

    def test_round_off_diagonal_is_rederived(self):
        # Rates that are not dyadic, and one diagonal an ulp away from
        # minus its float row sum: the row conserves only to round-off.
        generator = np.array(
            [[0.0, 0.1, 0.2], [0.3, 0.0, 0.7], [0.1, 0.6, 0.0]]
        )
        np.fill_diagonal(generator, -generator.sum(axis=1))
        generator[1, 1] = np.nextafter(generator[1, 1], -np.inf)

        rows = exact_generator(generator)
        for i, row in enumerate(rows):
            assert sum(row.values()) == 0
            off_diagonal = [
                Fraction(float(generator[i, j])) for j in range(3) if j != i
            ]
            assert row[i] == -sum(off_diagonal)
        assert exact_stationary(rows) == dense_stationary(generator)

        result = check(Chain(generator, [1.0, 2.0, 3.0]))
        assert result.status == "passed", result.findings
        assert result.data["diagonal_drift"] > 0.0
        assert result.data["balance_exact"] is True
        assert result.data["normalized_exact"] is True

    @pytest.mark.parametrize(
        "scale,skew,flags",
        [(1, 0, (True, True)), (2, 0, (True, False)), (1, 1, (False, True))],
    )
    def test_resubstitution_checks_the_returned_vector(
        self, monkeypatch, scale, skew, flags
    ):
        # The re-substitution does not trust the solve: a scaled vector
        # is not normalized, and a skewed one (mass moved between two
        # states) does not balance.
        generator = birth_death(0.25, 0.375, 3)
        pi = exact_stationary(exact_generator(generator))
        moved = Fraction(skew, 100)
        wrong = [scale * p for p in pi]
        wrong[0] += moved
        wrong[1] -= moved
        monkeypatch.setattr(exact, "exact_stationary", lambda rows: wrong)

        result = check(Chain(generator, [0.0, 1.0, 2.0, 3.0]))
        balanced, normalized = flags
        assert result.data["balance_exact"] is balanced
        assert result.data["normalized_exact"] is normalized
        assert result.data["nonnegative"] is True
        codes = [f.code for f in result.findings]
        assert codes == ([] if all(flags) else ["exact-balance-violated"])

    def test_one_state(self):
        generator = np.zeros((1, 1))
        assert exact_generator(generator) == [{}]
        assert exact_stationary([{}]) == [Fraction(1)]

        result = check(Chain(generator, [2.5]), 2.5)
        assert result.status == "passed", result.findings
        assert result.data["exact_gain"] == 2.5
        assert result.data["gain_drift"] == 0.0


def paper_optimum(rate: float):
    model = paper_system(arrival_rate=rate, capacity=5)
    mdp = model.build_ctmdp(1.0)
    return mdp, Policy(mdp, optimize_weighted(model, 1.0).policy.as_dict())


@pytest.fixture(scope="module")
def corpus_model():
    """The corpus CLI's default operating point (Q=3, rate 1/6)."""
    model = rated_model(paper_system(capacity=3), 1 / 6)
    return model, model.build_ctmdp(0.5)


class TestAgainstDenseReference:
    @pytest.mark.parametrize("rate", PAPER_SERVE_RATES)
    def test_paper_optimum(self, rate):
        mdp, policy = paper_optimum(rate)
        generator = policy.generator_matrix()
        rows = exact_generator(generator)
        # Only the chain's nonzeros are lifted.
        assert sum(len(row) for row in rows) == np.count_nonzero(generator)
        assert all(value != 0 for row in rows for value in row.values())

        expected = dense_stationary(generator)
        assert expected is not None
        assert exact_stationary(rows) == expected

        result = check_exact(mdp, policy, None, DEFAULT_TOLERANCE, 1.0)
        assert result.status == "passed", result.findings
        costs = [Fraction(float(c)) for c in policy.cost_vector()]
        gain = sum(p * c for p, c in zip(expected, costs))
        assert result.data["exact_gain"] == float(gain)

    @pytest.mark.parametrize("seed", range(3))
    def test_corpus_members(self, corpus_model, seed):
        # Every member whose table induces a chain; an invalid action
        # has no generator to solve.
        model, mdp = corpus_model
        kinds = [k for k in CORRUPTION_KINDS if k != "invalid-action"]
        members = build_corpus(model, weight=0.5, seed=seed, kinds=kinds)
        assert [m.kind for m in members] == kinds
        for member in members:
            generator = Policy(mdp, member.assignment).generator_matrix()
            assert exact_stationary(
                exact_generator(generator)
            ) == dense_stationary(generator), member.kind
