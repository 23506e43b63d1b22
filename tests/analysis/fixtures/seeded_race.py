"""Seeded-race fixture: a deliberately racy component.

``RacyTally`` keeps its tally in a *class-level* dict — one object
shared by every instance on every SCMD rank-thread — and writes it from
``go()`` with no rank guard and no collective.  Both race-detector
layers must catch this:

* statically, ``repro.analysis.scmd`` flags the ``run`` write
  (RA301, on top of the RA202 shared-state lint);
* dynamically, an armed ``repro.mpi.sanitizer`` sees unordered writes
  from two rank-threads through the shadowed class dict and raises
  ``DataRaceError``.

Kept under ``tests/analysis/fixtures`` so the shipped analysis surface
stays clean; never import this from product code.
"""

from repro.cca.component import Component
from repro.cca.ports import GoPort


class _RacyGo(GoPort):
    def __init__(self, owner):
        self.owner = owner

    def go(self):
        return self.owner.run()


class RacyTally(Component):
    """Counts steps into one dict shared across every rank-thread."""

    tallies = {}  # the seeded race: class-level mutable, written in run()

    def set_services(self, services):
        self.services = services
        services.add_provides_port(_RacyGo(self), "go")

    def run(self):
        comm = self.services.get_comm()
        n_steps = self.services.get_parameter("n_steps", 8)
        for step in range(n_steps):
            # every rank writes the same shared dict: a data race in
            # SCMD mode, silent until the sanitizer is armed
            RacyTally.tallies[step] = RacyTally.tallies.get(step, 0) + 1
        if comm is not None:
            comm.barrier()
        return len(RacyTally.tallies)
