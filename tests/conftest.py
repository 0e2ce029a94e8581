"""Shared fixtures: small canonical chains and the paper's models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dpm.presets import paper_service_provider, paper_system


@pytest.fixture
def two_state_generator() -> np.ndarray:
    """On/off chain with rates 2 (on->off) and 3 (off->on).

    Stationary distribution: (3/5, 2/5).
    """
    return np.array([[-2.0, 2.0], [3.0, -3.0]])


@pytest.fixture
def three_state_cycle() -> np.ndarray:
    """Unidirectional 3-cycle with unit rates; stationary = uniform."""
    return np.array(
        [
            [-1.0, 1.0, 0.0],
            [0.0, -1.0, 1.0],
            [1.0, 0.0, -1.0],
        ]
    )


@pytest.fixture
def reducible_generator() -> np.ndarray:
    """Two disconnected 2-state blocks (not irreducible)."""
    return np.array(
        [
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -2.0, 2.0],
            [0.0, 0.0, 2.0, -2.0],
        ]
    )


@pytest.fixture
def absorbing_generator() -> np.ndarray:
    """State 0 drains into absorbing state 1."""
    return np.array([[-1.0, 1.0], [0.0, 0.0]])


@pytest.fixture(scope="session")
def paper_provider():
    return paper_service_provider()


@pytest.fixture(scope="session")
def paper_model():
    return paper_system()


@pytest.fixture(scope="session")
def paper_mdp(paper_model):
    """The Section-V joint CTMDP at weight 1."""
    return paper_model.build_ctmdp(weight=1.0)


@pytest.fixture
def system_state_constructions(monkeypatch):
    """A one-element list counting :class:`SystemState` constructions."""
    from repro.dpm.system import SystemState

    count = [0]
    original = SystemState.__init__

    def counting(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(SystemState, "__init__", counting)
    return count
