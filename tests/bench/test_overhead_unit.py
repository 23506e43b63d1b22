"""Unit tests for the Table 4 harness internals (cheap pieces only; the
full measurement runs in benchmarks/)."""

import numpy as np
import pytest

from repro.bench.overhead import (
    OverheadRow,
    _ComponentCase,
    _LibraryCase,
    _seeded_mixture,
    _timed_interleaved,
)
from repro.chemistry import h2_lite_mechanism


def test_overhead_row_pct():
    """A row's % difference is its median pair ratio, not the ratio of
    its CPU totals."""
    row = OverheadRow("1", 100, 150, t_component=1.50, t_library=1.00,
                      median_ratio=1.02)
    assert row.pct_diff == pytest.approx(2.0)
    row2 = OverheadRow("10", 100, 424, 0.98, 1.00, 0.98)
    assert row2.pct_diff == pytest.approx(-2.0)


def test_seeded_mixture_normalized_with_radical():
    mech = h2_lite_mechanism()
    Y = _seeded_mixture(mech)
    assert Y.sum() == pytest.approx(1.0)
    assert Y[mech.species_index("H")] > 0.0
    assert Y[mech.species_index("N2")] > 0.5


def test_component_and_library_cases_do_identical_numerics():
    """Both call paths integrate the same cell to the same state with the
    same RHS-evaluation count — the precondition of the overhead claim."""
    T0, t_end, rtol, atol = 1200.0, 5e-7, 1e-6, 1e-10
    comp = _ComponentCase(T0, t_end, rtol, atol)
    lib = _LibraryCase(T0, t_end, rtol, atol)
    np.testing.assert_allclose(comp.y_init, lib.y_init, rtol=1e-12)
    comp.integrate_cell()
    lib.integrate_cell()
    assert comp.nfe == lib.nfe  # identical step/Newton sequences


def test_timed_interleaved_counts_all_cells():
    T0, t_end, rtol, atol = 1200.0, 2e-7, 1e-6, 1e-10
    comp = _ComponentCase(T0, t_end, rtol, atol)
    lib = _LibraryCase(T0, t_end, rtol, atol)
    t_c, t_l, ratio = _timed_interleaved(comp, lib, n_cells=4)
    assert t_c > 0.0 and t_l > 0.0 and ratio > 0.0
    assert comp.nfe == lib.nfe > 0
