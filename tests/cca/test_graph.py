"""Tests for assembly-graph export (the Fig 1/2/5 'arena' pictures)."""

import pytest

from repro.cca import Framework
from repro.cca.graph import assembly_graph, to_dot, wiring_summary
from tests.cca.test_framework import Greeter, Runner


def assembled():
    fw = Framework()
    fw.registry.register_many([Greeter, Runner])
    fw.instantiate("Greeter", "g")
    fw.instantiate("Runner", "r")
    fw.connect("r", "words", "g", "greeting")
    return fw


def test_graph_nodes_and_edges():
    g = assembly_graph(assembled())
    assert set(g.nodes) == {"g", "r"}
    assert g.number_of_edges() == 1
    (user, provider, data), = g.edges(data=True)
    assert (user, provider) == ("r", "g")
    assert data["uses_port"] == "words"
    assert data["provides_port"] == "greeting"


def test_graph_node_attributes():
    g = assembly_graph(assembled())
    assert g.nodes["g"]["provides"] == {"greeting": "GreetPort"}
    assert g.nodes["r"]["uses"] == {"words": "GreetPort"}


def test_dot_output_renders_edges():
    dot = to_dot(assembled(), title="demo")
    assert dot.startswith('digraph "demo"')
    assert '"r" -> "g"' in dot
    assert "words" in dot and "greeting" in dot
    assert dot.rstrip().endswith("}")


def test_wiring_summary_counts():
    fw = assembled()
    s = wiring_summary(fw)
    assert s == {"components": 2, "connections": 1, "dangling_uses": 0}
    fw.disconnect("r", "words")
    s2 = wiring_summary(fw)
    assert s2["dangling_uses"] == 1


def test_only_the_networkx_graph_needs_networkx(monkeypatch):
    """networkx is an optional (``test`` extra) dependency: without it the
    DOT text and the census still work and ``assembly_graph`` says what
    is missing."""
    import sys

    monkeypatch.setitem(sys.modules, "networkx", None)  # import fails
    fw = assembled()
    assert '"r" -> "g"' in to_dot(fw)
    assert wiring_summary(fw)["connections"] == 1
    with pytest.raises(ImportError, match="assembly_graph needs networkx"):
        assembly_graph(fw)


def test_full_application_graphs():
    from repro.apps.ignition0d import build_ignition0d
    from repro.apps.shock_interface import build_shock_interface

    fw = Framework()
    build_ignition0d(fw)
    s = wiring_summary(fw)
    assert s["components"] == 7
    assert s["connections"] == 10
    # every declared uses port is wired but CVODE's optional analytic
    # Jacobian: the constant-volume RHS has none
    assert s["dangling_uses"] == 1
    assert fw.provider_of("CvodeComponent", "jacobian") is None

    fw2 = Framework()
    build_shock_interface(fw2)
    s2 = wiring_summary(fw2)
    assert s2["components"] == 14
    dot = to_dot(fw2)
    assert '"InviscidFlux" -> "GodunovFlux"' in dot
