"""Assembly graphs: the programmatic analog of the GUI "arena".

The paper's Figs. 1, 2 and 5 are screenshots of component boxes with
provides-ports on the left, uses-ports on the right, and lines between
them.  This module renders a live framework as a :mod:`networkx` digraph
(components as nodes, connections as edges; ``networkx`` is imported on
that call only) and as Graphviz DOT text, so the same pictures can be
regenerated from any assembly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cca.framework import Framework

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


def assembly_graph(framework: Framework) -> "nx.MultiDiGraph":
    """Directed multigraph: ``user -> provider`` per port connection.

    Node attributes: ``provides`` / ``uses`` (name -> type maps).
    Edge attributes: ``uses_port`` / ``provides_port``.  The only function
    of the package that needs :mod:`networkx` (the ``test`` extra).
    """
    try:
        import networkx as nx
    except ImportError as exc:
        raise ImportError(
            "repro.cca.assembly_graph needs networkx (pip install "
            "'repro[test]')") from exc
    g = nx.MultiDiGraph()
    for name in framework.instance_names():
        services = framework.services_of(name)
        g.add_node(
            name,
            provides={p: t for p, (_o, t) in services.provides.items()},
            uses=dict(services.uses),
        )
    for (user, uses_port), (provider, provides_port) in \
            framework.connections().items():
        g.add_edge(user, provider, uses_port=uses_port,
                   provides_port=provides_port)
    return g


def to_dot(framework: Framework, title: str = "assembly") -> str:
    """Graphviz DOT text of the assembly (Fig 1/2/5 style)."""
    lines = [f'digraph "{title}" {{', "  rankdir=LR;",
             "  node [shape=box, style=rounded];"]
    for node in framework.instance_names():
        lines.append(f'  "{node}";')
    for (user, uses_port), (provider, provides_port) in \
            framework.connections().items():
        label = f"{uses_port}→{provides_port}"
        lines.append(f'  "{user}" -> "{provider}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def wiring_summary(framework: Framework) -> dict[str, int]:
    """Quick census used by tests/benches: component, connection and
    dangling-uses-port counts."""
    names = framework.instance_names()
    connections = framework.connections()
    dangling = sum(
        (name, uses_port) not in connections
        for name in names
        for uses_port in framework.services_of(name).uses)
    return {
        "components": len(names),
        "connections": len(connections),
        "dangling_uses": dangling,
    }
