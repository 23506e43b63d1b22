"""Tests for the assembly metadata: scripts, tables, graph exports."""

import pytest

from repro.apps import IGNITION0D_SCRIPT, assembly_table
from repro.apps.assemblies import format_assembly_table
from repro.cca import Framework, parse_script, to_dot, wiring_summary


def test_ignition_script_parses_cleanly():
    directives = parse_script(IGNITION0D_SCRIPT)
    verbs = [d.verb for d in directives]
    assert verbs.count("instantiate") == 7
    assert verbs.count("connect") == 10
    assert verbs[-1] == "go"
    # repository get-global lines precede instantiation (Ccaffeine style)
    assert verbs[0] == "repository"


def test_assembly_table_unknown_app():
    with pytest.raises(KeyError, match="unknown app"):
        assembly_table("navier_stokes_3d")


@pytest.mark.parametrize("app", ["ignition0d", "reaction_diffusion",
                                 "shock_interface"])
def test_format_assembly_table_renders_all_subsystems(app):
    text = format_assembly_table(app)
    for subsystem in ("Mesh", "Data Object", "Initial Condition",
                      "Explicit Integration", "Implicit Integration",
                      "Boundary Condition", "Database", "Adaptors"):
        assert subsystem in text


def test_assembly_table_is_a_copy():
    t = assembly_table("ignition0d")
    t["Mesh"] = ["corrupted"]
    assert assembly_table("ignition0d")["Mesh"] == ["N/A"]


def test_paper_instance_names_used_in_wiring():
    """The builders use the paper's own instance names (Fig 2/5 labels:
    AMR_Mesh, ErrEstAndRegrid, CvodeSolver, ReactionTerms, AMRMesh,
    ErrEstimator ...)."""
    from repro.apps.reaction_diffusion import build_reaction_diffusion
    from repro.apps.shock_interface import build_shock_interface

    fw = Framework()
    build_reaction_diffusion(fw)
    names = set(fw.instance_names())
    assert {"AMR_Mesh", "ErrEstAndRegrid", "CvodeSolver",
            "ReactionTerms"} <= names

    fw2 = Framework()
    build_shock_interface(fw2)
    names2 = set(fw2.instance_names())
    assert {"AMRMesh", "ErrEstimator", "GodunovFlux", "EFMFlux",
            "ConicalInterfaceIC"} <= names2


def test_every_assembly_has_no_dangling_required_ports():
    """All uses-ports the drivers exercise are connected; the only
    intentionally optional ones are GrACE's bc/balancer hooks and
    CVODE's analytic ``jacobian`` (ignition0d's constant-volume RHS has
    none)."""
    from repro.apps.ignition0d import build_ignition0d
    from repro.apps.reaction_diffusion import build_reaction_diffusion
    from repro.apps.shock_interface import build_shock_interface

    optional = {"bc", "balancer", "jacobian"}
    for builder in (build_ignition0d, build_reaction_diffusion,
                    build_shock_interface):
        fw = Framework()
        builder(fw)
        wired = {(u, p) for (u, p) in fw.connections()}
        for name in fw.instance_names():
            services = fw.services_of(name)
            for port_name in services.uses:
                if port_name in optional:
                    continue
                assert (name, port_name) in wired, \
                    f"{builder.__name__}: {name}.{port_name} dangling"


def test_dot_export_of_each_assembly():
    from repro.apps.ignition0d import build_ignition0d

    fw = Framework()
    build_ignition0d(fw)
    dot = to_dot(fw, title="fig1")
    assert '"CvodeComponent" -> "problemModeler"' in dot
    summary = wiring_summary(fw)
    assert summary["connections"] == 10
