"""The `modular` workload's input generator.

The seed only picks q in {2, 4}, the root of t^2 + t + 1 mod 7 that the
generator t of QQ(zeta3) maps to.  It never changes an expected value:
every seed must give the same Hilbert series.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402
from braidrack import hilbert, presentations, table_cocycle  # noqa: E402
from braidrack.verify import SERIES  # noqa: E402

LOW_DEGREE = 8


@pytest.mark.parametrize("seed", range(8))
def test_generated_inputs_certify_the_low_degrees(seed):
    inputs = workloads.modular_inputs(seed)
    space, p = inputs.space, inputs.presentation
    assert (inputs.q * inputs.q + inputs.q + 1) % workloads.PRIME == 0
    # table_cocycle re-runs the cocycle condition and raises if it fails
    table_cocycle(space.rack, space.field, space.cocycle.q)
    assert space.cocycle.check_yang_baxter()
    assert presentations.relation_in_kernel(p) == [True] * len(p.relations)
    assert presentations.quotient_dims(p, LOW_DEGREE) == workloads.T_NEW_DIMS[: LOW_DEGREE + 1]


def test_seeds_reach_both_roots():
    assert {workloads.modular_inputs(seed).q for seed in range(8)} == set(workloads.ROOTS)


def test_expected_series_is_the_papers():
    assert workloads.T_NEW_DIMS == hilbert.expand_product(SERIES["T-new"], workloads.QUOTIENT_TOP)
    assert sum(workloads.T_NEW_DIMS) == workloads.T_NEW_TOTAL == 5184
