"""Known-bad component source: exercises the RA1xx lifecycle findings.

Never imported by the tests — only parsed by the linter.
"""

from repro.cca import Component, Port


class WorkPort(Port):
    pass


class _Work(WorkPort):
    def __init__(self, owner):
        self.owner = owner

    def work(self):
        # helper class: resolves against the file union; 'mish' is a
        # near miss of the registered 'mesh' -> RA104
        return self.owner.services.get_port("mish")


class SloppyComponent(Component):
    def set_services(self, services):
        self.services = services
        services.register_uses_port("mesh", "MeshPort")
        services.register_uses_port("spare", "SparePort")   # RA105
        services.add_provides_port(_Work(self), "work")

    def run(self):
        mesh = self.services.ports.mesh
        data = self.services.ports.data                     # RA101
        name = "dyn"
        dyn = self.services.get_port(name)                  # RA106
        return mesh, data, dyn

    def late_registration(self):
        # ports must exist before wiring -> RA102
        self.services.register_uses_port("late", "LatePort")


class TidyComponent(Component):
    """The clean counterpart: no findings above info expected."""

    def set_services(self, services):
        self.services = services
        services.register_uses_port("grid", "MeshPort")

    def run(self):
        return self.services.ports.grid.cells()
