"""State classification for continuous-time Markov chains.

Implements the structural notions of Section II of the paper:

- communicating classes (Definition 2.4),
- irreducibility (Definition 2.5),
- connectedness of the transition graph (Definition 2.6), and
- recurrent/transient classification (Definition 2.3) for finite chains,
  where a state is (positive) recurrent iff its communicating class is
  closed -- has no transition leaving it.

All of it is read off one O(nnz) kernel over a chain's CSR generator
rows, :func:`class_structure`: the strong components of the transition
graph (:mod:`scipy.sparse.csgraph`), which of them are closed, and so
the transient set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.markov.generator import DEFAULT_ATOL, validate_generator


@dataclass(frozen=True, eq=False)
class ClassStructure:
    """The communicating-class structure of a chain's transition graph.

    ``edges`` is the ``(n, n)`` CSR adjacency of the transition graph,
    ``labels`` each state's class (classes in no particular order) and
    ``closed`` whether each class has no edge leaving it.
    """

    edges: sp.csr_array
    labels: np.ndarray
    closed: np.ndarray

    @property
    def recurrent(self) -> np.ndarray:
        """Per state: does it lie in a closed class? The rest are transient."""
        return self.closed[self.labels]

    @property
    def unichain(self) -> bool:
        """Exactly one closed class (transient states allowed)."""
        return int(np.count_nonzero(self.closed)) == 1

    def classes(self) -> "List[frozenset[int]]":
        """The classes as frozensets of state indices, by smallest member."""
        members = np.argsort(self.labels, kind="stable")
        bounds = np.cumsum(np.bincount(self.labels))[:-1]
        return sorted((frozenset(c.tolist()) for c in np.split(members, bounds)),
                      key=min)


def class_structure(rows, atol: float = DEFAULT_ATOL) -> ClassStructure:
    """The :class:`ClassStructure` of the chain with generator *rows*.

    *rows* is the ``(n, n)`` generator as a CSR (or dense) array -- for
    instance a policy's rows gathered from a CSR build -- and is taken
    as given; the dense entry points validate first. An off-diagonal
    rate at or below ``atol`` times the largest ``|entry|`` is no edge:
    at the chain's own magnitude it is indistinguishable from a missing
    one, whatever units the rates are expressed in.
    """
    rows = sp.csr_array(rows)
    n = rows.shape[0]
    src = np.repeat(np.arange(n), np.diff(rows.indptr))
    threshold = atol * float(np.max(np.abs(rows.data), initial=0.0))
    keep = (rows.data > threshold) & (rows.indices != src)
    src, dst = src[keep], rows.indices[keep]
    indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
    edges = sp.csr_array((np.ones(len(dst)), dst, indptr), shape=(n, n))
    n_classes, labels = connected_components(edges, connection="strong")
    leaving = labels[src] != labels[dst]
    closed = np.ones(n_classes, dtype=bool)
    closed[labels[src[leaving]]] = False
    return ClassStructure(edges, labels, closed)


def communicating_classes(matrix: np.ndarray) -> "List[frozenset[int]]":
    """Return the communicating classes (Defn. 2.4) as frozensets of indices.

    Classes are the strongly connected components of the transition graph,
    ordered by their smallest member for determinism.
    """
    return class_structure(validate_generator(matrix)).classes()


def is_irreducible(matrix: np.ndarray) -> bool:
    """True iff all states form a single communicating class (Defn. 2.5)."""
    return len(class_structure(validate_generator(matrix)).closed) == 1


def is_connected(matrix: np.ndarray) -> bool:
    """True iff the transition graph is (weakly) connected (Defn. 2.6).

    The paper calls a Markov process *connected* when the graph formed by
    its states and transitions is a connected graph; this is the condition
    its action-validity constraints are designed to preserve.
    """
    edges = class_structure(validate_generator(matrix)).edges
    return connected_components(edges, connection="weak")[0] <= 1


def classify_states(matrix: np.ndarray) -> "Dict[int, str]":
    """Classify each state as ``"recurrent"`` or ``"transient"`` (Defn. 2.3).

    For a finite CTMC, a state is recurrent iff its communicating class is
    closed (no transition leaves the class); all recurrent states of a
    finite chain are positive recurrent.
    """
    recurrent = class_structure(validate_generator(matrix)).recurrent
    return {i: "recurrent" if r else "transient"
            for i, r in enumerate(recurrent.tolist())}


def recurrent_states(matrix: np.ndarray) -> "List[int]":
    """Indices of all recurrent states, ascending."""
    return np.flatnonzero(
        class_structure(validate_generator(matrix)).recurrent).tolist()


def transient_states(matrix: np.ndarray) -> "List[int]":
    """Indices of all transient states, ascending."""
    return np.flatnonzero(
        ~class_structure(validate_generator(matrix)).recurrent).tolist()
