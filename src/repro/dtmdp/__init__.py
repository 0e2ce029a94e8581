"""Discrete-time Markov decision process substrate (the [11] baseline).

The prior work the paper improves on -- Paleologo, Benini et al.,
"Policy Optimization for Dynamic Power Management" (DAC 1998) [11] --
formulates power management in *discrete* time: the clock is divided
into slices of length ``L``, the system state is observed and a command
issued once per slice, and the optimization runs on a discrete-time
Markov decision chain.

This subpackage provides that entire formulation so the paper's
comparison can be made concrete:

- :mod:`repro.dtmdp.model` -- the DTMDP value type (per-state actions,
  transition probability rows, per-step costs), stored as the CTMDP
  with unit-rate generator rows ``P - I`` so that :mod:`repro.ctmdp`'s
  policy iteration, relative value iteration and occupation-measure LP
  ([11]'s solver) solve it unchanged, with per-step gains;
- :mod:`repro.dtmdp.discretize` -- the principled time-slicing of a
  CTMDP: ``P_a = expm(G_a L)`` per action with per-slice costs, i.e.
  exactly the chain a per-slice controller experiences when it holds
  each command for one slice.

The discretization bench quantifies the paper's first criticism of
[11] ("the power-managed system is modeled in the discrete-time
domain, which limits its [use] in real applications"): the sliced
optimum approaches the CTMDP optimum only as ``L -> 0``, precisely
where the per-slice PM overhead blows up (see the asynchrony bench).
"""

from repro.dtmdp.discretize import DiscretizedDPM, discretize_ctmdp
from repro.dtmdp.model import DTMDP

__all__ = [
    "DTMDP",
    "DiscretizedDPM",
    "discretize_ctmdp",
]
