"""Per-component performance characterization (future-work item 4).

"By using TAU, we intend to characterize the performance characteristics
of individual components and their assemblies."  This bench instruments
the reaction-diffusion assembly, runs a few steps, and emits the
per-component cost breakdown — verifying the physics components dominate
and the framework plumbing is cheap (the paper's overall thesis).
"""

from repro.apps.reaction_diffusion import build_reaction_diffusion
from repro.bench.reporting import save_json, save_report
from repro.cca import Framework
from repro.cca.profiling import instrument
from repro.util.options import fast_mode


def run_profile():
    framework = Framework()
    n = 16 if fast_mode() else 32
    build_reaction_diffusion(
        framework, nx=n, ny=n, max_levels=1, n_steps=3, dt=1e-7)
    profiler = instrument(framework)
    framework.go("Driver")
    return profiler


def test_profile_component_breakdown(benchmark):
    profiler = benchmark.pedantic(run_profile, rounds=1, iterations=1)
    report = profiler.report()
    path = save_report("profile_components", report)
    agg = profiler.by_component()
    # merge per-port entries per component instance
    merged: dict[str, float] = {}
    calls: dict[str, int] = {}
    for key, (c, t) in agg.items():
        comp = key.split(":")[0]
        merged[comp] = merged.get(comp, 0.0) + t
        calls[comp] = calls.get(comp, 0) + c
    total_cpu = sum(merged.values())
    total_calls = sum(calls.values())
    json_path = save_json("profile_components", {
        "bench": "profile_components",
        "total_self_cpu_seconds": total_cpu,
        "total_port_calls": total_calls,
        "components": [
            {"component": comp, "calls": calls[comp],
             "self_cpu_seconds": secs}
            for comp, secs in sorted(merged.items(),
                                     key=lambda kv: kv[1], reverse=True)
        ],
        "methods": [
            {"method": key, "calls": c, "self_cpu_seconds": t}
            for key, (c, t) in sorted(agg.items())
        ],
    }, metrics={
        # trajectory KPIs (lower = better): total self-CPU through the
        # instrumented assembly and the per-physics-component costs the
        # regression gate watches for hot-path slowdowns
        "total_self_cpu_seconds": total_cpu,
        "diffusion_cpu_seconds": merged.get("DiffusionPhysics", 0.0),
        "explicit_cpu_seconds": merged.get("ExplicitIntegrator", 0.0),
    })
    benchmark.extra_info["report"] = path
    benchmark.extra_info["json"] = json_path
    # physics components were exercised
    assert calls.get("DiffusionPhysics", 0) > 0
    assert calls.get("ReactionTerms", 0) > 0
    assert calls.get("ExplicitIntegrator", 0) > 0
    # the RHS work (diffusion + chemistry adaptor) dominates the profile;
    # lightweight plumbing (Statistics) stays marginal
    heavy = merged.get("DiffusionPhysics", 0.0) + \
        merged.get("ImplicitIntegrator", 0.0) + \
        merged.get("ExplicitIntegrator", 0.0)
    light = merged.get("Statistics", 0.0)
    assert heavy > light
