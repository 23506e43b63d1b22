"""One reusable scratch buffer for a component's per-call kernel arrays.

A 0.6 MB NumPy temporary is above glibc's trim threshold: allocated and
freed once per operation, it is mapped, page-faulted in and handed back
to the kernel every time (DESIGN.md §5, "Allocation discipline on the
explicit path").  A component that evaluates patch after patch instead
keeps one :class:`Arena` for its lifetime and carves each call's work
arrays out of it, as the paper's F77 kernels work in arrays their caller
owns.

The arena belongs to one component instance — one framework, one rank —
and is scratch, not state: its contents mean nothing between calls, it is
not checkpointed, and nothing a port hands back may be a view of it.
"""

from __future__ import annotations

import math

import numpy as np


class Arena:
    """A growable 1-D float64 buffer, carved into shaped views per call
    and as large as the largest request seen (one buffer, whatever the
    number of distinct patch shapes)."""

    def __init__(self) -> None:
        self._buffer = np.empty(0)

    @property
    def size(self) -> int:
        """Elements held."""
        return self._buffer.size

    def carve(self, *shapes: tuple[int, ...]) -> list[np.ndarray]:
        """Consecutive views of the given shapes, contents undefined;
        they stay valid until the next ``carve``."""
        sizes = [math.prod(shape) for shape in shapes]
        if sum(sizes) > self._buffer.size:
            self._buffer = np.empty(sum(sizes))
        views, start = [], 0
        for shape, size in zip(shapes, sizes):
            views.append(self._buffer[start:start + size].reshape(shape))
            start += size
        return views
