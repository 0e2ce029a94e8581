"""Continuous-time Markov chain (CTMC) substrate.

This subpackage implements the mathematical machinery of Section II of
Qiu & Pedram (DAC 1999):

- :mod:`repro.markov.generator` -- generator (transition-rate) matrices,
  their validation, stationary/limiting distributions (``pG = 0``),
  transient solutions, and uniformization.
- :mod:`repro.markov.classify` -- communicating classes, irreducibility,
  connectedness, and recurrent/transient state classification, all read
  off one O(nnz) class-structure kernel on CSR generator rows
  (:func:`~repro.markov.classify.class_structure`).
- :mod:`repro.markov.passage` -- mean first-passage times and hitting
  probabilities.
- :mod:`repro.markov.rewards` -- Markov processes with rewards: rate
  rewards, impulse (transition) rewards, earning rates, expected total
  reward over finite horizons (Eqn. 2.5), limiting average reward, and
  discounted reward.
- :mod:`repro.markov.tensor` -- tensor (Kronecker) products and sums
  (Definition 4.4), used to compose the joint SP x SQ generator.
- :mod:`repro.markov.kron` -- the matrix-free Kronecker generator
  operator: tensor-sum/-product structure applied as per-axis matvecs,
  never materializing the joint matrix.
- :mod:`repro.markov.chain` -- a labeled CTMC convenience type.
- :mod:`repro.markov.sampling` -- trajectory sampling.
"""

from repro.markov.chain import ContinuousTimeMarkovChain
from repro.markov.classify import (
    classify_states,
    communicating_classes,
    is_connected,
    is_irreducible,
)
from repro.markov.generator import (
    GeneratorMatrix,
    embedded_jump_chain,
    stationary_distribution,
    transient_distribution,
    uniformize,
    validate_generator,
)
from repro.markov.passage import (
    hitting_probabilities,
    mean_first_passage_matrix,
    mean_first_passage_times,
)
from repro.markov.kron import KroneckerGenerator
from repro.markov.rewards import MarkovRewardProcess
from repro.markov.sampling import TrajectorySampler, sample_path
from repro.markov.tensor import tensor_product, tensor_sum, tensor_sum_csr

__all__ = [
    "ContinuousTimeMarkovChain",
    "GeneratorMatrix",
    "KroneckerGenerator",
    "MarkovRewardProcess",
    "TrajectorySampler",
    "classify_states",
    "communicating_classes",
    "embedded_jump_chain",
    "hitting_probabilities",
    "is_connected",
    "is_irreducible",
    "mean_first_passage_matrix",
    "mean_first_passage_times",
    "sample_path",
    "stationary_distribution",
    "tensor_product",
    "tensor_sum",
    "tensor_sum_csr",
    "transient_distribution",
    "uniformize",
    "validate_generator",
]
