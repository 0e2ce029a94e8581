"""Generator (transition-rate) matrices for continuous-time Markov chains.

The generator matrix ``G`` of an ``n``-state CTMC (Eqn. 2.1 of the paper)
has off-diagonal entries ``G[i, j] = s_ij >= 0`` -- the transition rate
from state ``i`` to state ``j`` -- and diagonal entries
``G[i, i] = -sum_{j != i} s_ij`` so that every row sums to zero
(Eqn. 2.4; the paper calls such a matrix a *differential matrix*).

This module provides:

- :func:`validate_generator` -- structural checks.
- :func:`stationary_distribution` -- the limiting distribution, i.e. the
  unique solution of ``pG = 0``, ``sum(p) = 1`` (Theorem 2.1), and
  :func:`normalize_distribution`, the clip-and-normalize tail every
  stationary solver shares.
- :func:`transient_distribution` -- ``p(t) = p(0) expm(G t)``.
- :func:`uniformize` -- the uniformized DTMC ``P = I + G / Lambda``.
- :func:`embedded_jump_chain` -- the jump-chain transition matrix.
- :class:`GeneratorMatrix` -- a labeled, validated wrapper used by the
  higher-level chain and reward types.
"""

from __future__ import annotations

import math
from typing import Hashable, Optional, Sequence

import numpy as np
from scipy.linalg import expm

from repro.errors import InvalidGeneratorError, NotIrreducibleError

#: Relative tolerance used for generator-property checks. All checks in
#: this module scale with the magnitude of the row they inspect, so a
#: generator with rates ~1e8 and one with rates ~1e-10 are held to the
#: same *relative* conservation standard.
DEFAULT_ATOL = 1e-9


def canonical_shift(max_rate: float) -> int:
    """The binary exponent normalizing *max_rate* into ``[1, 2)``.

    ``ldexp(max_rate, -canonical_shift(max_rate))`` lies in ``[1, 2)``
    for any positive finite rate; zero or non-finite rates map to shift
    0. Because the shift is applied by exponent arithmetic only
    (:func:`numpy.ldexp`), rescaling a matrix by ``2**-shift`` is exact
    on IEEE-754 floats: solvers use it to assemble their linear systems
    in canonical units so that models differing only by a power-of-two
    time rescaling produce bit-identical solutions (after the exact
    back-shift) and extreme-magnitude models neither overflow nor
    underflow inside the factorization.
    """
    if not (np.isfinite(max_rate) and max_rate > 0.0):
        return 0
    return math.frexp(max_rate)[1] - 1


def validate_generator(matrix: np.ndarray, atol: float = DEFAULT_ATOL) -> np.ndarray:
    """Check that *matrix* is a valid CTMC generator and return it as float.

    Parameters
    ----------
    matrix:
        Square array-like. Off-diagonal entries must be non-negative and
        each row must sum to (numerically) zero.
    atol:
        Relative tolerance for the zero-row-sum and non-negativity
        checks; every row is checked against ``atol`` times its own
        magnitude ``sum_j |G[i, j]|``, so the checks are invariant
        under rescaling the whole matrix. An exactly zero row passes
        (its residual is exactly zero).

    Raises
    ------
    InvalidGeneratorError
        If the matrix is not square, has negative off-diagonal entries,
        has positive diagonal entries, or rows that do not sum to zero
        relative to their magnitude.
    """
    g = np.asarray(matrix, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise InvalidGeneratorError(f"generator must be square, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise InvalidGeneratorError("generator contains non-finite entries")
    row_scale = np.abs(g).sum(axis=1)
    row_tol = atol * row_scale
    off = g.copy()
    np.fill_diagonal(off, 0.0)
    if np.any(off < -row_tol[:, None]):
        i, j = np.unravel_index(np.argmin(off + row_tol[:, None]), off.shape)
        raise InvalidGeneratorError(
            f"negative off-diagonal rate G[{i},{j}] = {g[i, j]:g}"
        )
    if np.any(np.diag(g) > row_tol):
        i = int(np.argmax(np.diag(g) - row_tol))
        raise InvalidGeneratorError(f"positive diagonal entry G[{i},{i}] = {g[i, i]:g}")
    row_sums = g.sum(axis=1)
    if np.any(np.abs(row_sums) > row_tol):
        i = int(np.argmax(np.abs(row_sums) - row_tol))
        raise InvalidGeneratorError(
            f"row {i} sums to {row_sums[i]:g} against magnitude "
            f"{row_scale[i]:g}, expected 0 (Eqn. 2.4)"
        )
    return g


def stationary_distribution(
    matrix: np.ndarray, atol: float = DEFAULT_ATOL, validate: bool = True
) -> np.ndarray:
    """Solve ``pG = 0`` with ``sum(p) = 1`` (Theorem 2.1(2)).

    The linear system is solved by replacing one balance equation with the
    normalization constraint, which is the standard full-rank formulation
    for an irreducible chain.

    Parameters
    ----------
    matrix:
        Generator matrix ``G``.
    atol:
        Tolerance for the structural checks.
    validate:
        Skip :func:`validate_generator` when ``False`` -- for callers
        whose matrix is valid by construction (e.g. rows assembled from a
        compiled CTMDP). The checks never alter the matrix, so the
        returned distribution is identical either way.

    Raises
    ------
    NotIrreducibleError
        If the solution is not unique or contains (numerically)
        negative probabilities, which indicates a reducible chain.
    """
    if validate:
        g = validate_generator(matrix, atol=atol)
    else:
        g = np.asarray(matrix, dtype=float)
    n = g.shape[0]
    if n == 1:
        return np.array([1.0])
    # Transpose: G^T p^T = 0; replace the last equation by sum(p) = 1.
    # Assemble in canonical units (max exit rate scaled into [1, 2) by an
    # exact exponent shift): p is dimensionless, so no back-transform is
    # needed, and generators differing only by a power-of-two rescaling
    # yield bit-identical distributions.
    shift = canonical_shift(float(np.max(np.abs(np.diag(g)), initial=0.0)))
    a = np.ldexp(g.T, -shift)
    a[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        p = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NotIrreducibleError(
            "stationary distribution is not unique; chain is reducible"
        ) from exc
    return normalize_distribution(p)


def normalize_distribution(p: np.ndarray) -> np.ndarray:
    """The probability vector of a stationary solve's solution *p*.

    The tail every tier's stationary solve shares: significantly
    negative mass (below ``-1e-7``) means the chain is not irreducible,
    round-off negatives are clipped to zero, and the rest is normalized.

    Raises
    ------
    NotIrreducibleError
        On significantly negative entries or a vector with no finite
        positive mass.
    """
    if np.min(p) < -1e-7:
        raise NotIrreducibleError(
            "stationary solve produced significantly negative probabilities "
            f"(min {np.min(p):.3g}); the chain is likely reducible or "
            "ill-conditioned"
        )
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if not np.isfinite(total) or total <= 0.0:
        raise NotIrreducibleError(
            "stationary solve produced a non-normalizable vector"
        )
    return p / total


def transient_distribution(
    matrix: np.ndarray, initial: np.ndarray, t: float
) -> np.ndarray:
    """Return ``p(t) = p(0) expm(G t)`` for initial row distribution ``p(0)``.

    Parameters
    ----------
    matrix:
        Generator matrix ``G``.
    initial:
        Initial distribution over states (row vector, sums to 1).
    t:
        Elapsed time; must be non-negative.
    """
    g = validate_generator(matrix)
    p0 = np.asarray(initial, dtype=float)
    if p0.shape != (g.shape[0],):
        raise InvalidGeneratorError(
            f"initial distribution shape {p0.shape} does not match {g.shape[0]} states"
        )
    if t < 0:
        raise ValueError(f"time must be non-negative, got {t}")
    if abs(p0.sum() - 1.0) > 1e-6:
        raise InvalidGeneratorError(f"initial distribution sums to {p0.sum():g}, not 1")
    return p0 @ expm(g * t)


def uniformization_rate(matrix: np.ndarray, slack: float = 1.0) -> float:
    """Return a uniformization constant ``Lambda >= max_i |G[i,i]|``.

    ``slack`` multiplies the maximal exit rate; ``slack >= 1`` guarantees
    the uniformized matrix has non-negative diagonal. A small chain of all
    zero rates (a single absorbing state) gets ``Lambda = 1`` so that the
    uniformized matrix is still a valid stochastic matrix.
    """
    if slack < 1.0:
        raise ValueError(f"slack must be >= 1, got {slack}")
    g = np.asarray(matrix, dtype=float)
    max_rate = float(np.max(-np.diag(g), initial=0.0))
    return slack * max_rate if max_rate > 0 else 1.0


def uniformize(
    matrix: np.ndarray, rate: Optional[float] = None
) -> "tuple[np.ndarray, float]":
    """Uniformize generator ``G`` into a DTMC ``P = I + G / Lambda``.

    Uniformization converts continuous-time problems into equivalent
    discrete-time ones: the stationary distribution of ``P`` equals that
    of ``G``, and average-reward MDP algorithms for discrete chains apply
    to the uniformized process with rewards divided by ``Lambda``.

    Returns
    -------
    (P, Lambda):
        The uniformized stochastic matrix and the rate used.
    """
    g = validate_generator(matrix)
    lam = uniformization_rate(g) if rate is None else float(rate)
    if lam < uniformization_rate(g, slack=1.0) - DEFAULT_ATOL:
        raise ValueError(
            f"uniformization rate {lam:g} is below the maximal exit rate "
            f"{uniformization_rate(g):g}"
        )
    p = np.eye(g.shape[0]) + g / lam
    # Clean tiny negative entries produced by floating-point cancellation.
    p = np.clip(p, 0.0, None)
    p /= p.sum(axis=1, keepdims=True)
    return p, lam


def embedded_jump_chain(matrix: np.ndarray) -> np.ndarray:
    """Return the embedded jump-chain transition matrix.

    Row ``i`` is ``s_ij / sum_k s_ik`` for ``j != i``. A state with zero
    exit rate (absorbing) gets a self-loop with probability 1.
    """
    g = validate_generator(matrix)
    n = g.shape[0]
    p = np.zeros_like(g)
    # "Absorbing" is judged relative to the fastest state in the chain:
    # a state whose exit rate is below DEFAULT_ATOL times the maximal
    # exit rate is structurally a sink at this resolution.
    max_exit = float(np.max(-np.diag(g), initial=0.0))
    threshold = DEFAULT_ATOL * max_exit
    for i in range(n):
        exit_rate = -g[i, i]
        if exit_rate <= threshold:
            p[i, i] = 1.0
        else:
            p[i, :] = g[i, :] / exit_rate
            p[i, i] = 0.0
    return p


def holding_rates(matrix: np.ndarray) -> np.ndarray:
    """Return the exit (holding) rate ``-G[i,i]`` of every state."""
    g = validate_generator(matrix)
    return -np.diag(g).copy()


class GeneratorMatrix:
    """A validated, state-labeled CTMC generator matrix.

    This is the central value type of the :mod:`repro.markov` package:
    the raw rates live in :attr:`matrix`, while :attr:`states` carries
    caller-meaningful labels (e.g. ``("active", 2)`` for joint SP/SQ
    states) so that higher layers never juggle bare indices.

    Parameters
    ----------
    matrix:
        Square array of rates satisfying the generator properties.
    states:
        Optional sequence of hashable state labels; defaults to
        ``range(n)``. Labels must be unique.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        states: Optional[Sequence[Hashable]] = None,
    ) -> None:
        self._matrix = validate_generator(matrix)
        n = self._matrix.shape[0]
        if states is None:
            states = tuple(range(n))
        else:
            states = tuple(states)
        if len(states) != n:
            raise InvalidGeneratorError(
                f"{len(states)} state labels for a {n}-state generator"
            )
        if len(set(states)) != len(states):
            raise InvalidGeneratorError("state labels must be unique")
        self._states = states
        self._index = {s: i for i, s in enumerate(states)}

    # -- basic accessors ---------------------------------------------------

    @property
    def matrix(self) -> np.ndarray:
        """The underlying rate matrix (a defensive copy is *not* made)."""
        return self._matrix

    @property
    def states(self) -> "tuple[Hashable, ...]":
        """The ordered tuple of state labels."""
        return self._states

    @property
    def n_states(self) -> int:
        return self._matrix.shape[0]

    def index_of(self, state: Hashable) -> int:
        """Return the row/column index of *state*."""
        try:
            return self._index[state]
        except KeyError:
            raise KeyError(f"unknown state {state!r}") from None

    def rate(self, source: Hashable, dest: Hashable) -> float:
        """Return the transition rate ``s_ij`` from *source* to *dest*."""
        return float(self._matrix[self.index_of(source), self.index_of(dest)])

    def exit_rate(self, state: Hashable) -> float:
        """Return the total exit rate ``-G[i,i]`` of *state*."""
        return float(-self._matrix[self.index_of(state), self.index_of(state)])

    # -- analysis ----------------------------------------------------------

    def stationary_distribution(self) -> np.ndarray:
        """The limiting distribution ``p`` solving ``pG = 0`` (Thm 2.1)."""
        return stationary_distribution(self._matrix)

    def stationary_probability(self, state: Hashable) -> float:
        """Limiting probability of a single labeled state."""
        return float(self.stationary_distribution()[self.index_of(state)])

    def transient_distribution(self, initial: np.ndarray, t: float) -> np.ndarray:
        """``p(t)`` starting from row distribution *initial*."""
        return transient_distribution(self._matrix, initial, t)

    def uniformize(self, rate: Optional[float] = None) -> "tuple[np.ndarray, float]":
        """Uniformized DTMC matrix and rate; see :func:`uniformize`."""
        return uniformize(self._matrix, rate)

    def embedded_jump_chain(self) -> np.ndarray:
        """Jump-chain transition matrix; see :func:`embedded_jump_chain`."""
        return embedded_jump_chain(self._matrix)

    def holding_rates(self) -> np.ndarray:
        """Exit rates of all states, ordered like :attr:`states`."""
        return holding_rates(self._matrix)

    def relabel(self, states: Sequence[Hashable]) -> "GeneratorMatrix":
        """Return a copy of this generator with new state labels."""
        return GeneratorMatrix(self._matrix.copy(), states)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"GeneratorMatrix(n_states={self.n_states})"
