"""Fig 9 — strong scaling vs ideal for two global problem sizes.

Paper claims: the larger (350^2) problem follows the ideal curve closely;
the smaller (200^2) problem departs at high processor counts (worst
efficiency 73% at P = 48, where the per-rank patch is only 29^2).
"""

from repro.bench import run_fig9, save_json, save_report


def test_fig9_strong_scaling_knee(benchmark):
    result = benchmark.pedantic(run_fig9, rounds=1, iterations=1)
    path = save_report("fig9_strong_scaling", result["report"])
    json_path = save_json("fig9_strong_scaling", {
        "figure": "fig9",
        "worst_small": result["worst_small"],
        "worst_large": result["worst_large"],
        "curves": {str(n): c for n, c in result["curves"].items()},
    }, metrics={
        # serial-baseline time per size (lower = better); efficiency is
        # tracked inverted so the gate flags drops the same way it flags
        # slowdowns (higher = worse)
        **{f"t1_{n}": c["times"][0]
           for n, c in result["curves"].items()},
        "inv_worst_small": 1.0 / result["worst_small"],
        "inv_worst_large": 1.0 / result["worst_large"],
    })
    benchmark.extra_info["report"] = path
    benchmark.extra_info["json"] = json_path
    curves = result["curves"]
    sizes = sorted(curves)
    small, large = sizes[0], sizes[-1]
    # measured time decreases with P for both problems
    for n in sizes:
        times = curves[n]["times"]
        assert times[-1] < times[0]
    # the large problem scales better than the small one at the highest P
    assert result["worst_large"] > result["worst_small"]
    # the small problem's efficiency clearly degrades (the paper's knee:
    # 73 % at P = 48; ours 80 % there at full scale, 93 % at the fast
    # mode's P = 8) while the large one stays near the ideal curve
    assert 0.6 < result["worst_small"] < 0.95
    assert result["worst_large"] > 0.8
