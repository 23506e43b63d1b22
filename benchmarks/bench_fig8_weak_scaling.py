"""Fig 8 — run time vs processor count at constant per-processor workload.

Paper claim: "increasing the number of processors (and the problem size)
does not make an appreciable difference" — the curves are flat in P.
"""

from repro.bench import run_fig8, save_json, save_report


def test_fig8_constant_workload_flat(benchmark):
    result = benchmark.pedantic(run_fig8, rounds=1, iterations=1)
    path = save_report("fig8_weak_scaling", result["report"])
    json_path = save_json("fig8_weak_scaling", {
        "figure": "fig8",
        "flatness": {str(n): v for n, v in result["flatness"].items()},
        "curves": [
            {"n_local": r.n_local, "procs": r.procs, "times": r.times,
             "rank_summaries": r.rank_summaries,
             "worst_imbalance": r.worst_imbalance}
            for r in result["results"]
        ],
    }, metrics={
        # KPIs for the BENCH_ trajectory: slowest case per size (lower =
        # better) plus the flatness ratio per size
        **{f"t_max_{r.n_local}": max(r.times) for r in result["results"]},
        **{f"flatness_{n}": v for n, v in result["flatness"].items()},
    })
    benchmark.extra_info["report"] = path
    benchmark.extra_info["json"] = json_path
    # flat curves: compute is counted and a rank talks to its neighbours
    # only, so max/min over the P sweep is the halo messages and the
    # log2(P) reductions over the per-rank work — a few percent at 20^2,
    # per mille at 175^2 — on any host, the same on every run
    for n_local, ratio in result["flatness"].items():
        assert ratio < 1.07, f"size {n_local}: T varies {ratio:.3f}x over P"
    # curves are ordered by per-rank problem size
    results = result["results"]
    for a, b in zip(results, results[1:]):
        assert max(a.times) < min(b.times)
