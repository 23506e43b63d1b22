"""Patches: boxes with identity, level membership and rank ownership.

A patch is the unit of computation ("the evaluation of the RHS ... one
patch at a time"), of boundary-condition application, and of domain
decomposition.  Patch *metadata* is replicated on all ranks; only the
owner holds data arrays (see :mod:`repro.samr.dataobject`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import MeshError
from repro.samr.box import Box


@dataclass(frozen=True)
class Patch:
    """Immutable patch descriptor.

    Attributes
    ----------
    id:
        Globally unique (across levels and regrids) integer identity.
    box:
        Interior cell box in this level's index space.
    level:
        Level number (0 = coarsest).
    owner:
        Owning rank (0 in serial runs).
    nghost:
        Ghost-cell width on every face.
    parent:
        Id of a coarse patch containing this one's coarsened box, or -1.
    """

    id: int
    box: Box
    level: int
    owner: int = 0
    nghost: int = 2
    parent: int = -1

    def __post_init__(self) -> None:
        if self.box.empty:
            raise MeshError(f"patch {self.id}: empty box {self.box}")
        if self.nghost < 0:
            raise MeshError(f"patch {self.id}: negative ghost width")

    # -- geometry: a patch is immutable, so each is worked out once ----------
    @cached_property
    def ghost_box(self) -> Box:
        """Interior box padded by the ghost width."""
        return self.box.grow(self.nghost)

    @cached_property
    def array_shape(self) -> tuple[int, ...]:
        """Shape of a single-variable data array including ghosts."""
        return self.ghost_box.shape

    @cached_property
    def _interior_slices(self) -> tuple[slice, ...]:
        return self.box.slices(origin=self.ghost_box.lo)

    def interior_slices(self) -> tuple[slice, ...]:
        """Slices selecting the interior inside a ghosted array."""
        return self._interior_slices

    def slices_for(self, region: Box) -> tuple[slice, ...]:
        """Slices addressing ``region`` (level index space) inside this
        patch's ghosted array.  ``region`` must fit in the ghost box."""
        if not self.ghost_box.contains_box(region):
            raise MeshError(
                f"region {region} outside patch {self.id} ghost box "
                f"{self.ghost_box}")
        return region.slices(origin=self.ghost_box.lo)

    def __repr__(self) -> str:
        return (f"Patch(id={self.id}, L{self.level}, {self.box}, "
                f"owner={self.owner})")
