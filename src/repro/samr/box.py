"""Integer index-space rectangles (cell-centered, inclusive bounds).

A :class:`Box` is the unit of geometry in the SAMR substrate: patches,
flagged-region clusters, ghost regions and transfer regions are all boxes.
Bounds are *inclusive* on both ends, matching the Berger-Collela
literature: ``Box((0, 0), (9, 9))`` covers a 10x10 block of cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import MeshError


@dataclass(frozen=True, order=True)
class Box:
    """An axis-aligned rectangle of cells, ``lo`` and ``hi`` inclusive."""

    lo: tuple[int, ...]
    hi: tuple[int, ...]

    def __post_init__(self) -> None:
        lo = tuple(int(v) for v in self.lo)
        hi = tuple(int(v) for v in self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi):
            raise MeshError(f"dimension mismatch: lo={lo} hi={hi}")
        if not lo:
            raise MeshError("zero-dimensional box")

    @classmethod
    def _of_ints(cls, lo: tuple[int, ...], hi: tuple[int, ...]) -> "Box":
        """A box from bounds computed out of another box's: already
        ``int`` tuples of one length, so ``__post_init__`` has nothing to
        coerce or check."""
        box = object.__new__(cls)
        object.__setattr__(box, "lo", lo)
        object.__setattr__(box, "hi", hi)
        return box

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_shape(shape: tuple[int, ...], origin: tuple[int, ...] | None = None) -> "Box":
        """Box covering ``shape`` cells starting at ``origin`` (default 0)."""
        origin = origin or (0,) * len(shape)
        if any(n <= 0 for n in shape):
            raise MeshError(f"non-positive shape {shape}")
        return Box(origin, tuple(o + n - 1 for o, n in zip(origin, shape)))

    # -- basic queries -----------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.lo)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(h - l + 1 for l, h in zip(self.lo, self.hi))

    @property
    def size(self) -> int:
        """Number of cells (0 if the box is empty)."""
        n = 1
        for l, h in zip(self.lo, self.hi):
            if h < l:
                return 0
            n *= h - l + 1
        return n

    @property
    def empty(self) -> bool:
        return any(h < l for l, h in zip(self.lo, self.hi))

    def contains_point(self, idx: tuple[int, ...]) -> bool:
        return all(l <= i <= h for i, l, h in zip(idx, self.lo, self.hi))

    def contains_box(self, other: "Box") -> bool:
        if other.empty:
            return True
        return all(
            sl <= ol and oh <= sh
            for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def intersects(self, other: "Box") -> bool:
        return not self.intersection(other).empty

    # -- algebra -----------------------------------------------------------
    def intersection(self, other: "Box") -> "Box":
        """The overlap box (possibly empty)."""
        if self.ndim != other.ndim:
            raise MeshError("cannot intersect boxes of different dimension")
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        return Box._of_ints(lo, hi)

    def bounding(self, other: "Box") -> "Box":
        """Smallest box containing both."""
        lo = tuple(min(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(max(a, b) for a, b in zip(self.hi, other.hi))
        return Box(lo, hi)

    def grow(self, n: int | tuple[int, ...]) -> "Box":
        """Pad by ``n`` cells on every face (negative shrinks)."""
        if not isinstance(n, int):
            return Box(tuple(l - p for l, p in zip(self.lo, n)),
                       tuple(h + p for h, p in zip(self.hi, n)))
        return Box._of_ints(tuple(l - n for l in self.lo),
                            tuple(h + n for h in self.hi))

    def shift(self, offset: tuple[int, ...]) -> "Box":
        return Box(
            tuple(l + o for l, o in zip(self.lo, offset)),
            tuple(h + o for h, o in zip(self.hi, offset)),
        )

    def refine(self, ratio: int) -> "Box":
        """Index box of this region on a mesh ``ratio`` times finer."""
        if ratio < 1:
            raise MeshError(f"refine ratio must be >= 1, got {ratio}")
        return Box(
            tuple(l * ratio for l in self.lo),
            tuple((h + 1) * ratio - 1 for h in self.hi),
        )

    def coarsen(self, ratio: int) -> "Box":
        """Index box of this region on a mesh ``ratio`` times coarser
        (floor division; the coarse box *covers* the fine one)."""
        if ratio < 1:
            raise MeshError(f"coarsen ratio must be >= 1, got {ratio}")
        ratio = int(ratio)
        return Box._of_ints(tuple(l // ratio for l in self.lo),
                            tuple(h // ratio for h in self.hi))

    # -- slicing helpers -----------------------------------------------------
    def slices(self, origin: tuple[int, ...] | None = None) -> tuple[slice, ...]:
        """NumPy slices addressing this box inside an array whose element
        [0, 0, ...] sits at index ``origin`` (default: this box's own lo)."""
        origin = origin or self.lo
        return tuple(
            slice(l - o, h - o + 1)
            for l, h, o in zip(self.lo, self.hi, origin)
        )

    def points(self) -> Iterator[tuple[int, ...]]:
        """Iterate all cell indices (row-major). Intended for tests only."""
        if self.empty:
            return
        if self.ndim == 1:
            for i in range(self.lo[0], self.hi[0] + 1):
                yield (i,)
        elif self.ndim == 2:
            for i in range(self.lo[0], self.hi[0] + 1):
                for j in range(self.lo[1], self.hi[1] + 1):
                    yield (i, j)
        else:
            inner = Box(self.lo[1:], self.hi[1:])
            for i in range(self.lo[0], self.hi[0] + 1):
                for rest in inner.points():
                    yield (i, *rest)

    def __repr__(self) -> str:
        return f"Box({self.lo}->{self.hi})"
