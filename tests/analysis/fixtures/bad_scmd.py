"""Known-bad SCMD source: exercises the RA2xx and RA301/RA302 findings.

Never imported by the tests — only parsed by the analyzer.
"""

from repro.cca import Component
from repro.util.logging import get_logger

_log = get_logger("fixture")          # allowlisted: no finding

cache = {}                            # RA201 (lowercase mutable)
results = []                          # RA201
DEFAULTS = {"gamma": 1.4}             # RA204 (constant-style)
shared_ok = {}  # scmd: shared       -- pragma: no finding


class RacyComponent(Component):
    history = []                      # RA202 (mutable class attribute)
    _counts = {}                      # RA202

    def set_services(self, services):
        self.services = services

    def go(self):
        global cache
        RacyComponent.history = []            # RA301 (class attr write)
        self.__class__._counts["go"] = 1      # RA301 (__class__ write)
        cache["result"] = 42                  # RA301 (module dict write)
        results.append("x")                   # RA302 (module list mutation)
        cache = {}                            # RA301 (global rebind)

    def step(self):
        shared_ok["tick"] = 1  # scmd: shared -- pragma: no finding
