"""Ablation: continuous-time vs time-sliced ([11]) formulation.

The paper's first criticism of [11]: "the power-managed system is
modeled in the discrete-time domain, which limits its [use] in real
applications". This bench makes the cost of time-slicing quantitative
on the lumped (no-transfer-state, i.e. [11]-style) model:

- the per-slice optimal cost rate exceeds the CTMDP optimum at every
  slice length ``L`` and converges to it monotonically as ``L -> 0``;
- per-slice control also means one PM decision per slice: the bench
  reports decisions/second alongside, connecting to the asynchrony
  ablation (the CT policy spends ~0.5 decisions/second at this load).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import ResultCache
from repro.ctmdp.policy_iteration import policy_iteration
from repro.dpm.presets import paper_system
from repro.dtmdp.discretize import discretize_ctmdp, slice_metric_rates

WEIGHT = 1.0
SLICES = (4.0, 2.0, 1.0, 0.5, 0.1, 0.02)


def run_discretization_sweep():
    model = paper_system(include_transfer_states=False)
    ct_gain = policy_iteration(model.build_ctmdp(WEIGHT)).gain
    rows = []
    for slice_length in SLICES:
        d = discretize_ctmdp(model, slice_length, weight=WEIGHT)
        result = policy_iteration(d.mdp)
        rates = slice_metric_rates(d, result.policy.as_dict())
        rows.append(
            {
                "slice": slice_length,
                "gain_rate": d.gain_rate(result.gain),
                "excess": d.gain_rate(result.gain) - ct_gain,
                "power": rates["power"],
                "decisions_per_second": 1.0 / slice_length,
            }
        )
    return ct_gain, rows


_cache = ResultCache(run_discretization_sweep)


@pytest.fixture(scope="module")
def sweep():
    return _cache.get()


def test_bench_ablation_discretization(benchmark):
    ct_gain, rows = _cache.bench(benchmark)
    print()
    print(f"CT optimum: {ct_gain:.4f} cost rate")
    for row in rows:
        print(
            f"L={row['slice']:5.2f}: cost rate={row['gain_rate']:8.4f} "
            f"(+{row['excess']:6.4f}), power={row['power']:7.3f} W, "
            f"{row['decisions_per_second']:6.1f} PM decisions/s"
        )


class TestDiscretizationShape:
    def test_ct_lower_bounds_every_slice(self, sweep):
        ct_gain, rows = sweep
        for row in rows:
            assert row["gain_rate"] >= ct_gain - 1e-6, row["slice"]

    def test_monotone_convergence(self, sweep):
        _, rows = sweep
        excesses = [row["excess"] for row in rows]  # coarse -> fine
        assert excesses == sorted(excesses, reverse=True)

    def test_fine_slice_converges(self, sweep):
        ct_gain, rows = sweep
        finest = rows[-1]
        assert finest["gain_rate"] == pytest.approx(ct_gain, rel=0.005)

    def test_coarse_slice_pays_visibly(self, sweep):
        ct_gain, rows = sweep
        coarsest = rows[0]
        assert coarsest["excess"] > 0.02 * ct_gain  # > 2% of the optimum

    def test_convergence_costs_decision_rate(self, sweep):
        # Matching CT within 0.5% requires ~50 decisions/s; the CT PM
        # needs about 0.5/s at this load (asynchrony bench).
        _, rows = sweep
        finest = rows[-1]
        assert finest["decisions_per_second"] >= 50.0
