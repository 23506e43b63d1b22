"""Fast-mode smoke tests of the table/figure harnesses: they must run,
produce well-formed reports, and satisfy the paper's qualitative claims
at reduced scale.  (The full-scale claims are asserted in benchmarks/.)"""

import pytest

from repro.bench.scaling import _FIG8_CACHE
from repro.bench import (
    run_fig3_fig4,
    run_fig6,
    run_fig7,
    run_fig8,
    run_fig9,
    run_table5,
)


@pytest.fixture(scope="module")
def fig8():
    return run_fig8(fast=True)


@pytest.fixture(scope="module")
def fig9():
    return run_fig9(fast=True)


def test_fig8_flat_and_ordered(fig8):
    """Compute is counted and a rank talks to its neighbours only, so a
    curve rises with P by the two halo messages and the log2(P) reduction
    and nothing else: a few percent, the smaller the per-rank mesh the
    more — on any host, the same on every run."""
    assert "Fig 8" in fig8["report"]
    assert fig8["flatness"][40] < 1.03
    assert fig8["flatness"][40] < fig8["flatness"][20] < 1.07
    results = fig8["results"]
    assert results[0].n_local < results[1].n_local
    assert max(results[0].times) < min(results[1].times)
    for r in results:
        assert r.times == sorted(r.times)  # comm only ever adds
        assert r.worst_imbalance == pytest.approx(1.0, abs=1e-3)


def test_scaling_times_repeat_exactly(fig8, fig9):
    """The virtual clock holds nothing the host measured: a second sweep
    returns ``==`` times."""
    _FIG8_CACHE.clear()
    again = run_fig8(fast=True)
    assert [r.times for r in again["results"]] == \
        [r.times for r in fig8["results"]]
    assert run_table5(fast=True)["ratios"] == \
        run_table5(fig8["results"])["ratios"]
    again = run_fig9(fast=True)
    for n_global, curve in fig9["curves"].items():
        assert again["curves"][n_global]["times"] == curve["times"]


def test_table5_statistics(fig8):
    res = run_table5(fig8["results"], fast=True)
    assert "Table 5" in res["report"]
    for r in res["results"]:
        assert r.stdev < r.mean
        assert r.median == pytest.approx(r.mean, rel=0.3)
    for _b, _a, got, expected in res["ratios"]:
        # run time tracks the per-rank cell count (paper: 3.68 / 3.14
        # against 4.0 / 3.06), a little under it for the fixed comm cost
        assert 0.9 * expected < got < expected


def test_fig9_efficiency_ordering(fig9):
    assert "Fig 9" in fig9["report"]
    # the knee (paper: 73 % at 48): 93.4 % at 8 ranks of 5 rows each
    assert 0.85 < fig9["worst_small"] < 0.97
    assert fig9["worst_large"] > fig9["worst_small"]
    for c in fig9["curves"].values():
        assert c["efficiency"][0] == 1.0
        # more ranks: always faster, never more efficient
        assert c["times"] == sorted(c["times"], reverse=True)
        assert c["efficiency"] == sorted(c["efficiency"], reverse=True)


def test_fig7_convergence_direction():
    res = run_fig7(fast=True)
    assert res["monotone"]
    for c in res["curves"].values():
        assert c["min"] < 0.0
        assert c["series"]  # time series recorded


def test_fig6_field_summary():
    res = run_fig6(fast=True)
    rho_min, rho_max = res["rho_range"]
    assert rho_max > rho_min > 0.0
    assert res["reflected_shocks"]
    assert "Fig 6" in res["report"]


def test_fig3_fig4_snapshots():
    res = run_fig3_fig4(fast=True)
    snaps = res["snapshots"]
    assert len(snaps) == 4  # t0 + 3 chunks
    assert snaps[0]["T_max"] > 1000.0
    assert res["refined"]
    assert "census" in snaps[-1]
    # the paper's scheme: the chemistry went through per-cell CVODE
    cvode = res["cvode"]
    assert 0 < cvode["jac_evals"] < cvode["steps"] < cvode["rhs_evals"]
