"""Table 5 — weak-scaling run-time statistics of the reaction-diffusion
code (mean / median / stdev across machine sizes, per per-rank mesh).

Paper claims: the machine behaves "homogeneous" (small stdev relative to
the mean — no jumps as the job spreads), and run times scale with the
per-processor problem size.
"""

from repro.bench import run_table5, save_json, save_report


def test_table5_weak_scaling_statistics(benchmark):
    result = benchmark.pedantic(run_table5, rounds=1, iterations=1)
    path = save_report("table5_weak_scaling", result["report"])
    json_path = save_json("table5_weak_scaling", {
        "table": "table5",
        "results": [
            {"n_local": r.n_local, "procs": r.procs, "times": r.times,
             "mean": r.mean, "median": r.median, "stdev": r.stdev,
             "worst_imbalance": r.worst_imbalance,
             "rank_summaries": r.rank_summaries}
            for r in result["results"]
        ],
        "ratios": [list(row) for row in result["ratios"]],
        "imbalance": {str(n): v for n, v in result["imbalance"].items()},
    }, metrics={
        # trajectory KPIs (lower = better): mean run time and worst
        # max/avg load imbalance per per-rank problem size
        **{f"mean_t_{r.n_local}": r.mean for r in result["results"]},
        **{f"imbalance_{r.n_local}": r.worst_imbalance
           for r in result["results"]},
    })
    benchmark.extra_info["report"] = path
    benchmark.extra_info["json"] = json_path
    results = result["results"]
    # every case carries the aggregated per-rank summary, and the widest
    # sweep point actually broke the run down rank by rank with the
    # max/avg imbalance statistic
    for r in results:
        assert len(r.rank_summaries) == len(r.procs)
        for p, case in zip(r.procs, r.rank_summaries):
            assert len(case["per_rank"]) == p
            assert case["stats"]["imbalance"] >= 1.0
        assert r.worst_imbalance >= 1.0
    # homogeneity: stdev well below the mean for every size
    for r in results:
        assert r.stdev < 0.05 * r.mean
    # run time tracks per-rank problem size (monotone in cell count)
    means = [r.mean for r in results]
    assert all(b > a for a, b in zip(means, means[1:]))
    # ratios sit just under the cell-count ratio: the work is counted per
    # cell, the communication a smaller share of the larger mesh
    for _b, _a, got, expect in result["ratios"]:
        assert 0.95 * expect < got <= expect
