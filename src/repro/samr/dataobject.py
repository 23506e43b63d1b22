"""Data Objects: collections of per-patch field arrays.

"It maintains the collection of arrays which contain data declared on
patches, 1 array per patch.  Typically a number of related variables are
stored together in a Data Object."  (paper §4, subsystem 2)

An array has shape ``(nvar, *ghosted_patch_shape)``; only the owner rank
of a patch allocates storage for it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

import numpy as np

from repro.errors import MeshError
from repro.mpi import sanitizer as _tsan
from repro.samr.hierarchy import Hierarchy
from repro.samr.patch import Patch

#: process-unique DataObject numbers (``next`` on a count is atomic)
_SERIALS = itertools.count()


class DataObject:
    """Named multi-variable field over a hierarchy's patches.

    Parameters
    ----------
    name:
        Identifier (e.g. ``"flow"`` holding T and the mass fractions).
    hierarchy:
        The mesh the field lives on.
    nvar:
        Number of variables stored together.
    rank:
        SCMD rank of the caller — storage is allocated only for owned
        patches.
    var_names:
        Optional variable labels, e.g. ``["T", "Y_H2", ...]``.
    """

    def __init__(self, name: str, hierarchy: Hierarchy, nvar: int,
                 rank: int = 0, var_names: list[str] | None = None,
                 dtype=np.float64) -> None:
        if nvar < 1:
            raise MeshError(f"nvar must be >= 1, got {nvar}")
        if var_names is not None and len(var_names) != nvar:
            raise MeshError("var_names length != nvar")
        self.name = name
        self.hierarchy = hierarchy
        self.nvar = nvar
        self.rank = rank
        self.var_names = list(var_names) if var_names else [
            f"v{k}" for k in range(nvar)]
        self.dtype = dtype
        self._data: dict[int, np.ndarray] = {}
        # names this object's buffers to the sanitizer: ``id(array)`` would
        # be reused once an array is freed, and two ranks' successive
        # DataObjects would then look like one shared buffer
        self._serial = next(_SERIALS)
        self.sync_allocation()

    # -- storage management ------------------------------------------------
    def sync_allocation(self, fill: float = 0.0) -> None:
        """(Re)allocate storage for currently-owned patches; keep existing
        arrays; free arrays of patches that no longer exist."""
        live = {p.id: p for p in self.hierarchy.all_patches()
                if p.owner == self.rank}
        for pid in list(self._data):
            if pid not in live:
                del self._data[pid]
        for pid, patch in live.items():
            if pid not in self._data:
                self._data[pid] = np.full(
                    (self.nvar, *patch.array_shape), fill, dtype=self.dtype)

    def owned_patches(self, level: int | None = None) -> Iterator[Patch]:
        """Owned patches, optionally restricted to one level."""
        levels = (self.hierarchy.levels if level is None
                  else [self.hierarchy.level(level)])
        for lvl in levels:
            for p in lvl.patches:
                if p.owner == self.rank:
                    yield p

    def has(self, patch: Patch | int) -> bool:
        pid = patch if isinstance(patch, int) else patch.id
        return pid in self._data

    # -- array access ---------------------------------------------------------
    def array(self, patch: Patch | int) -> np.ndarray:
        """Full ghosted array, shape ``(nvar, *ghost_shape)``."""
        pid = patch if isinstance(patch, int) else patch.id
        try:
            arr = self._data[pid]
            # While the race sanitizer is armed, record the access keyed
            # by the DataObject that owns the buffer: per-rank DataObjects
            # never collide, one leaked across rank-threads does.
            # Disabled cost: this flag check.
            if _tsan.on:
                _tsan.record_write(
                    f"patch array {self.name}[{pid}] "
                    f"of DataObject #{self._serial}")
            return arr
        except KeyError:
            raise MeshError(
                f"rank {self.rank} holds no data for patch {pid} "
                f"in DataObject {self.name!r}") from None

    def interior(self, patch: Patch) -> np.ndarray:
        """View of the interior (no ghosts), shape ``(nvar, *box_shape)``."""
        return self.array(patch)[(slice(None), *patch.interior_slices())]

    def var(self, patch: Patch, k: int, ghost: bool = True) -> np.ndarray:
        """Single variable ``k`` on ``patch`` (ghosted by default)."""
        if not 0 <= k < self.nvar:
            raise MeshError(f"variable index {k} out of range")
        arr = self.array(patch)[k]
        if ghost:
            return arr
        return arr[patch.interior_slices()]

    def var_index(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise MeshError(
                f"no variable {name!r} in {self.var_names}") from None

    # -- whole-object operations -------------------------------------------
    def fill(self, value: float) -> None:
        for arr in self._data.values():
            arr.fill(value)

    def copy_from(self, other: "DataObject") -> None:
        """Copy values patch-wise from a compatible DataObject."""
        if other.nvar != self.nvar:
            raise MeshError("nvar mismatch in copy_from")
        for pid, arr in self._data.items():
            src = other._data.get(pid)
            if src is None or src.shape != arr.shape:
                raise MeshError(f"patch {pid} missing/incompatible in source")
            arr[...] = src

    def clone(self, name: str | None = None) -> "DataObject":
        out = DataObject(name or f"{self.name}~", self.hierarchy, self.nvar,
                         self.rank, self.var_names, self.dtype)
        out.copy_from(self)
        return out

    def axpy(self, alpha: float, other: "DataObject") -> None:
        """self += alpha * other (patch-wise, ghosts included)."""
        for pid, arr in self._data.items():
            arr += alpha * other._data[pid]

    def scale(self, alpha: float) -> None:
        for arr in self._data.values():
            arr *= alpha

    def apply(self, fn: Callable[[Patch, np.ndarray], None],
              level: int | None = None) -> None:
        """Run ``fn(patch, ghosted_array)`` over owned patches."""
        for patch in self.owned_patches(level):
            fn(patch, self.array(patch))

    # -- reductions --------------------------------------------------------
    def max_norm(self, comm=None, k: int | None = None) -> float:
        """Max |value| over interiors; global when ``comm`` is given."""
        local = 0.0
        for patch in self.owned_patches():
            view = self.interior(patch)
            if k is not None:
                view = view[k]
            if view.size:
                local = max(local, float(np.abs(view).max()))
        if comm is not None:
            from repro.mpi.comm import Op

            return float(comm.allreduce(local, op=Op.MAX))
        return local

    def sum(self, comm=None, k: int | None = None) -> float:
        """Sum over interiors (double counting impossible: interiors are
        disjoint); global when ``comm`` is given."""
        local = 0.0
        for patch in self.owned_patches():
            view = self.interior(patch)
            if k is not None:
                view = view[k]
            local += float(view.sum())
        if comm is not None:
            from repro.mpi.comm import Op

            return float(comm.allreduce(local, op=Op.SUM))
        return local

    def __repr__(self) -> str:
        return (f"DataObject({self.name!r}, nvar={self.nvar}, "
                f"{len(self._data)} local patches)")
