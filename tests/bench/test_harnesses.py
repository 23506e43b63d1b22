"""Fast-mode smoke tests of the table/figure harnesses: they must run,
produce well-formed reports, and satisfy the paper's qualitative claims
at reduced scale.  (The full-scale claims are asserted in benchmarks/.)"""

import pytest

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


def test_fig8_flat_and_ordered(fig8):
    assert "Fig 8" in fig8["report"]
    for ratio in fig8["flatness"].values():
        assert ratio < 1.6
    results = fig8["results"]
    assert results[0].n_local < results[1].n_local
    assert max(results[0].times) < min(results[1].times)


def test_table5_statistics(fig8):
    res = run_table5(fig8["results"], fast=True)
    assert "Table 5" in res["report"]
    for r in res["results"]:
        assert r.stdev < r.mean
        assert r.median == pytest.approx(r.mean, rel=0.3)
    for _b, _a, got, _exp in res["ratios"]:
        assert got > 1.2  # bigger per-rank meshes take longer


def test_fig9_efficiency_ordering():
    res = run_fig9(fast=True)
    assert "Fig 9" in res["report"]
    assert 0.0 < res["worst_small"] < 1.2
    assert res["worst_large"] > res["worst_small"]
    for c in res["curves"].values():
        assert c["efficiency"][0] == pytest.approx(1.0)
        assert c["times"][-1] < c["times"][0]


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
