"""Tests for communicating classes and state classification."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dpm.verification import is_unichain
from repro.markov.classify import (
    class_structure,
    classify_states,
    communicating_classes,
    is_connected,
    is_irreducible,
    recurrent_states,
    transient_states,
)
from repro.markov.generator import DEFAULT_ATOL


@pytest.fixture
def transient_into_cycle() -> np.ndarray:
    """State 0 drains into a 2-cycle {1, 2}: 0 is transient."""
    return np.array(
        [
            [-1.0, 1.0, 0.0],
            [0.0, -2.0, 2.0],
            [0.0, 3.0, -3.0],
        ]
    )


class TestCommunicatingClasses:
    def test_irreducible_single_class(self, two_state_generator):
        assert communicating_classes(two_state_generator) == [frozenset({0, 1})]

    def test_disconnected_blocks(self, reducible_generator):
        classes = communicating_classes(reducible_generator)
        assert classes == [frozenset({0, 1}), frozenset({2, 3})]

    def test_transient_state_is_own_class(self, transient_into_cycle):
        classes = communicating_classes(transient_into_cycle)
        assert frozenset({0}) in classes
        assert frozenset({1, 2}) in classes

    def test_classes_partition_states(self, transient_into_cycle):
        classes = communicating_classes(transient_into_cycle)
        union = set().union(*classes)
        assert union == {0, 1, 2}
        assert sum(len(c) for c in classes) == 3


class TestIrreducibility:
    def test_irreducible(self, three_state_cycle):
        assert is_irreducible(three_state_cycle)

    def test_reducible(self, reducible_generator):
        assert not is_irreducible(reducible_generator)

    def test_transient_state_breaks_irreducibility(self, transient_into_cycle):
        assert not is_irreducible(transient_into_cycle)


class TestConnectedness:
    def test_paper_defn_weak_connectivity(self, transient_into_cycle):
        # Not irreducible, but the graph is (weakly) connected.
        assert is_connected(transient_into_cycle)

    def test_disconnected(self, reducible_generator):
        assert not is_connected(reducible_generator)

    def test_single_state_connected(self):
        assert is_connected(np.zeros((1, 1)))


class TestClassification:
    def test_all_recurrent_when_irreducible(self, three_state_cycle):
        assert classify_states(three_state_cycle) == {
            0: "recurrent",
            1: "recurrent",
            2: "recurrent",
        }

    def test_transient_vs_recurrent(self, transient_into_cycle):
        assert classify_states(transient_into_cycle) == {
            0: "transient",
            1: "recurrent",
            2: "recurrent",
        }

    def test_recurrent_and_transient_helpers(self, transient_into_cycle):
        assert recurrent_states(transient_into_cycle) == [1, 2]
        assert transient_states(transient_into_cycle) == [0]

    def test_absorbing_state_is_recurrent(self, absorbing_generator):
        assert classify_states(absorbing_generator) == {
            0: "transient",
            1: "recurrent",
        }


class TestTransitionGraph:
    """The kernel's edge set is the transition graph."""

    def test_edges_follow_positive_rates(self, two_state_generator):
        edges = class_structure(two_state_generator).edges
        assert set(zip(*(a.tolist() for a in edges.nonzero()))) == {(0, 1), (1, 0)}

    def test_no_self_loops(self, three_state_cycle):
        edges = class_structure(three_state_cycle).edges
        assert not np.any(edges.diagonal())


#: A generated chain's anchor row holds only this rate, which then is
#: the largest |entry|, so the edge threshold is exactly ``AT``.
ANCHOR = 100.0
AT = DEFAULT_ATOL * ANCHOR


@st.composite
def threshold_generators(draw):
    """Random generators whose off-diagonal rates are absent, ordinary,
    exactly at the edge threshold, or one ulp above it."""
    n = draw(st.integers(1, 7))
    g = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            kind = draw(st.sampled_from(["none", "rate", "at", "above"]))
            if i == j or kind == "none":
                continue
            g[i, j] = {
                "rate": draw(st.floats(0.5, 10.0)),
                "at": AT,
                "above": np.nextafter(AT, np.inf),
            }[kind]
    anchor, to = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    if anchor != to:
        g[anchor] = 0.0
        g[anchor, to] = ANCHOR
    np.fill_diagonal(g, -g.sum(axis=1))
    return g


def closure(adjacency: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a boolean adjacency (Warshall)."""
    reach = adjacency | np.eye(len(adjacency), dtype=bool)
    for k in range(len(adjacency)):
        reach |= reach[:, [k]] & reach[[k], :]
    return reach


class TestKernelOracle:
    """The kernel against a boolean transitive closure in plain NumPy,
    which shares no code with :mod:`scipy.sparse.csgraph`."""

    @given(g=threshold_generators())
    @settings(max_examples=200, deadline=None)
    def test_matches_transitive_closure(self, g):
        adjacency = (g > DEFAULT_ATOL * np.max(np.abs(g))) & ~np.eye(len(g), dtype=bool)
        reach = closure(adjacency)
        mutual = reach & reach.T
        classes = sorted({frozenset(np.flatnonzero(row).tolist()) for row in mutual},
                         key=min)
        # Closed class: every state reachable from it reaches back.
        recurrent = np.all(~reach | reach.T, axis=1)
        closed = {frozenset(np.flatnonzero(mutual[i]).tolist())
                  for i in np.flatnonzero(recurrent)}

        structure = class_structure(sp.csr_array(g))
        assert np.array_equal(structure.edges.toarray(), adjacency)
        assert structure.classes() == classes
        assert {frozenset(np.flatnonzero(structure.labels == k).tolist())
                for k in np.flatnonzero(structure.closed)} == closed
        assert communicating_classes(g) == classes
        assert is_irreducible(g) == (len(classes) == 1)
        assert recurrent_states(g) == np.flatnonzero(recurrent).tolist()
        assert transient_states(g) == np.flatnonzero(~recurrent).tolist()
        assert classify_states(g) == {
            i: "recurrent" if r else "transient" for i, r in enumerate(recurrent)}
        assert is_connected(g) == bool(closure(adjacency | adjacency.T).all())
        assert is_unichain(g) == (len(closed) == 1)
