"""The SAMR patch hierarchy (Berger-Collela style).

"As a first step, a uniform coarse mesh is overlaid on the domain ...
finer meshes are created by dividing the coarse cells symmetrically by a
constant refinement factor.  This occurs recursively, leading to a
hierarchy of patches."  (paper §3)

The :class:`Hierarchy` owns geometry (physical origin and base spacing),
level bookkeeping, patch identity allocation and ownership assignment; the
regridding cycle itself lives in :mod:`repro.samr.regrid`.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Sequence

from repro.errors import MeshError
from repro.mpi import sanitizer as _tsan
from repro.samr.box import Box
from repro.samr.boxlist import intersect_all, is_disjoint
from repro.samr.level import Level
from repro.samr.loadbalance import balance_greedy
from repro.samr.patch import Patch
from repro.samr.schedule import TransferSchedule


#: process-unique hierarchy numbers (``next`` on a count is atomic)
_SERIALS = itertools.count()


class Hierarchy:
    """A hierarchy of refinement levels over a logically rectangular domain.

    Parameters
    ----------
    base_shape:
        Cells of the coarsest mesh, e.g. ``(100, 100)``.
    origin / extent:
        Physical coordinates of the domain's low corner and its size.
    ratio:
        Constant refinement factor between consecutive levels (paper: 2).
    max_levels:
        Upper bound on the number of levels (1 = uniform mesh).
    nghost:
        Ghost width of every patch.
    nranks:
        Size of the SCMD cohort the hierarchy is distributed over.
    """

    def __init__(
        self,
        base_shape: tuple[int, ...],
        origin: tuple[float, ...] | None = None,
        extent: tuple[float, ...] | None = None,
        ratio: int = 2,
        max_levels: int = 1,
        nghost: int = 2,
        nranks: int = 1,
        balancer: Callable[[list[Box], int], list[int]] = balance_greedy,
    ) -> None:
        ndim = len(base_shape)
        self.origin = tuple(origin) if origin else (0.0,) * ndim
        self.extent = tuple(extent) if extent else tuple(float(n) for n in base_shape)
        if len(self.origin) != ndim or len(self.extent) != ndim:
            raise MeshError("origin/extent dimensionality mismatch")
        if ratio < 2:
            raise MeshError(f"refinement ratio must be >= 2, got {ratio}")
        if max_levels < 1:
            raise MeshError("max_levels must be >= 1")
        self.ratio = ratio
        self.max_levels = max_levels
        self.nghost = nghost
        self.nranks = nranks
        self.balancer = balancer
        self._next_patch_id = 0
        # names this hierarchy to the sanitizer: ``id(self)`` would be
        # reused once a hierarchy is freed, and two ranks' successive
        # hierarchies would then look like one shared allocator
        self._serial = next(_SERIALS)
        self._schedules: dict[tuple[int, int], TransferSchedule] = {}
        base_domain = Box.from_shape(base_shape)
        dx0 = tuple(e / n for e, n in zip(self.extent, base_shape))
        self.levels: list[Level] = [Level(0, base_domain, dx0)]

    # -- identity / geometry --------------------------------------------------
    def new_patch_id(self) -> int:
        # Patch metadata is replicated per rank in SCMD mode; a hierarchy
        # shared across rank-threads would race on this allocator, so the
        # armed sanitizer clock-checks it (disabled cost: one flag check).
        if _tsan.on:
            _tsan.record_write(
                f"Hierarchy patch-id allocator #{self._serial}")
        pid = self._next_patch_id
        self._next_patch_id += 1
        return pid

    @property
    def next_patch_id(self) -> int:
        """The id the next :meth:`new_patch_id` call will hand out
        (checkpoint metadata; does not consume an id)."""
        return self._next_patch_id

    def seed_patch_ids(self, next_id: int) -> None:
        """Restart the id allocator at ``next_id`` (checkpoint restore).

        Restores must replay the allocator exactly so patches created
        after a restart get the same identities as in an uninterrupted
        run; rewinding below an id already handed out would mint
        duplicates, so that is rejected.
        """
        if next_id < self._next_patch_id:
            raise MeshError(
                f"cannot rewind patch-id allocator from "
                f"{self._next_patch_id} to {next_id}")
        self._next_patch_id = next_id

    @property
    def ndim(self) -> int:
        return self.levels[0].domain.ndim

    @property
    def nlevels(self) -> int:
        return len(self.levels)

    @property
    def finest(self) -> Level:
        return self.levels[-1]

    def level(self, n: int) -> Level:
        if not 0 <= n < len(self.levels):
            raise MeshError(f"no level {n} (have {len(self.levels)})")
        return self.levels[n]

    def domain_at(self, n: int) -> Box:
        """The full domain box in level ``n``'s index space."""
        if n < len(self.levels):
            return self.levels[n].domain
        finest = self.levels[-1]
        return finest.domain.refine(self.ratio ** (n - finest.number))

    def transfer_schedule(self, level: int, rank: int = 0) -> TransferSchedule:
        """``rank``'s ghost-fill / restriction plan for ``level``.

        Built on first use and replayed until the level's patches, or
        those of the level below, differ *by value* from the ones it was
        built from — there is nothing to invalidate by hand.  One entry
        per ``(level, rank)``.
        """
        lvl = self.level(level)
        patches = tuple(lvl.patches)
        coarse = tuple(self.levels[level - 1].patches) if level else None
        schedule = self._schedules.get((level, rank))
        if (schedule is None or schedule.patches != patches
                or schedule.coarse != coarse):
            schedule = self._schedules[level, rank] = TransferSchedule(
                patches, coarse, lvl.domain, self.ratio, rank)
        return schedule

    def dx(self, n: int) -> tuple[float, ...]:
        return tuple(d / self.ratio**n for d in self.levels[0].dx)

    def all_patches(self) -> Iterator[Patch]:
        for level in self.levels:
            yield from level.patches

    def patch_by_id(self, pid: int) -> Patch:
        for level in self.levels:
            for p in level.patches:
                if p.id == pid:
                    return p
        raise MeshError(f"no patch with id {pid}")

    def total_cells(self) -> int:
        return sum(level.ncells for level in self.levels)

    # -- level construction --------------------------------------------------
    def build_base_level(self, decomposition: Sequence[Box] | None = None) -> Level:
        """Populate level 0, decomposed across ranks.

        Without an explicit ``decomposition`` the domain is split into
        ``nranks`` near-equal strips along the first axis.
        """
        level = self.levels[0]
        if level.patches:
            raise MeshError("base level already built")
        boxes = list(decomposition) if decomposition else self._strips(
            level.domain, self.nranks)
        self._check_partition(boxes, level.domain)
        owners = self.balancer(boxes, self.nranks)
        for box, owner in zip(boxes, owners):
            level.add(Patch(self.new_patch_id(), box, 0, owner, self.nghost))
        return level

    @staticmethod
    def _strips(domain: Box, n: int) -> list[Box]:
        total = domain.shape[0]
        if n > total:
            raise MeshError(f"cannot cut {total} rows into {n} strips")
        edges = [domain.lo[0] + (total * k) // n for k in range(n + 1)]
        boxes = []
        for k in range(n):
            lo = (edges[k],) + domain.lo[1:]
            hi = (edges[k + 1] - 1,) + domain.hi[1:]
            boxes.append(Box(lo, hi))
        return boxes

    @staticmethod
    def _check_partition(boxes: Sequence[Box], domain: Box) -> None:
        if not is_disjoint(list(boxes)):
            raise MeshError("decomposition boxes overlap")
        if sum(b.size for b in boxes) != domain.size:
            raise MeshError("decomposition does not tile the domain")
        for b in boxes:
            if not domain.contains_box(b):
                raise MeshError(f"decomposition box {b} escapes the domain")

    def set_level_boxes(self, n: int, boxes: Sequence[Box]) -> Level:
        """Replace level ``n`` (n >= 1) with patches over ``boxes``.

        Boxes are given in level ``n`` index space; they are clipped to the
        domain and to proper nesting inside level ``n-1``'s patch regions.
        Ownership is assigned by the hierarchy's balancer; each patch's
        ``parent`` is a coarse patch overlapping its coarsened box (used
        for parent-child rank affinity).
        """
        if n < 1:
            raise MeshError("level 0 is rebuilt via build_base_level")
        if n > len(self.levels):
            raise MeshError(f"cannot create level {n}: level {n-1} missing")
        if n >= self.max_levels:
            raise MeshError(f"level {n} exceeds max_levels={self.max_levels}")
        domain = self.domain_at(n)
        clipped = intersect_all(list(boxes), domain)
        # proper nesting: fine boxes must live under coarse patches
        coarse = self.levels[n - 1]
        nested: list[Box] = []
        for b in clipped:
            for cp in coarse.patches:
                piece = b.intersection(cp.box.refine(self.ratio))
                if not piece.empty:
                    nested.append(piece)
        nested = _dedupe_disjoint(nested)
        level = Level(n, domain, self.dx(n))
        if nested:
            owners = self.balancer(nested, self.nranks)
            for box, owner in zip(nested, owners):
                parent = self._find_parent(box, coarse)
                level.add(Patch(self.new_patch_id(), box, n, owner,
                                self.nghost, parent))
        if n == len(self.levels):
            self.levels.append(level)
        else:
            self.levels[n] = level
        return level

    def _find_parent(self, box: Box, coarse: Level) -> int:
        cbox = box.coarsen(self.ratio)
        best, best_overlap = -1, 0
        for cp in coarse.patches:
            overlap = cp.box.intersection(cbox).size
            if overlap > best_overlap:
                best, best_overlap = cp.id, overlap
        return best

    def drop_levels_above(self, n: int) -> None:
        """Destroy levels finer than ``n`` (regions deemed over-refined)."""
        del self.levels[n + 1:]

    def __repr__(self) -> str:
        return "Hierarchy(" + ", ".join(repr(l) for l in self.levels) + ")"


def _dedupe_disjoint(boxes: list[Box]) -> list[Box]:
    """Make a possibly-overlapping list disjoint by subtracting earlier
    boxes from later ones."""
    from repro.samr.boxlist import subtract_all

    out: list[Box] = []
    for b in boxes:
        out.extend(subtract_all([b], out))
    return [b for b in out if not b.empty]
