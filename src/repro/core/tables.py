"""F-table storage: the 4-D "triangle of triangles" (paper Figs. 7, 9, 10).

``F[i1, j1, i2, j2]`` is stored as one dense inner matrix per outer window
``(i1, j1)``.  Two inner layouts are provided, matching the paper's two
memory-mapping experiments (Fig. 10):

* option 1 — ``(i2, j2) -> (i2, j2)``: the upper triangle of an M x M
  bounding box ("always performs better": rows are contiguous streams);
* option 2 — ``(i2, j2) -> (i2, j2 - i2)``: a packed skewed layout using
  the same box but shifting each row left.

Physically, the whole outer triangle lives in **one packed contiguous
buffer** of shape ``(T1(n), m, m)`` laid out row-major over ``(i1, j1)``:
window ``(i1, j1)`` is the slab ``packed[offset(i1, j1)]`` with

    offset(i1, j1) = row_start[i1] + (j1 - i1)

an O(1) affine map.  The payoff, beyond cutting the O(N^2) per-window
allocation churn of the old dict-of-arrays storage, is that every split
scan of the recurrence becomes a *contiguous slab view*: the R0/R4 left
operands of window ``(i1, j1)`` are exactly the ``j1 - i1`` consecutive
slabs starting at ``offset(i1, i1)``, which the tiled backend consumes
with zero gathering.

The paper notes AlphaZ's default bounding-box allocation wastes 3/4 of
the M^2 N^2 box but the unused elements never move through the memory
hierarchy; :meth:`FTable.bytes_allocated` / :meth:`FTable.bytes_touched`
quantify exactly that (per *logically allocated* window — the backing
buffer is reserved once up front, but only windows the computation has
claimed count, preserving the Figs. 7/9 accounting).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["FTable", "MEMORY_LAYOUTS"]

MEMORY_LAYOUTS = ("option1", "option2")
NEG_INF = np.float32(-np.inf)


class FTable:
    """Triangular 4-D DP table in one packed contiguous buffer.

    Parameters
    ----------
    n: outer sequence length (windows ``0 <= i1 <= j1 < n``).
    m: inner sequence length.
    layout: inner memory map, ``"option1"`` or ``"option2"``.
    fill: initial value of inner matrices (``-inf`` marks "not computed",
        which every engine semiring treats as the reduction identity).
    dtype: element type of the packed buffer.  Max-plus keeps the
        paper's float32; the log-sum-exp semiring computes in float64.
    """

    def __init__(
        self,
        n: int,
        m: int,
        layout: str = "option1",
        fill: float = -np.inf,
        dtype=np.float32,
    ) -> None:
        if n <= 0 or m <= 0:
            raise ValueError(f"table sizes must be > 0, got ({n}, {m})")
        if layout not in MEMORY_LAYOUTS:
            raise ValueError(f"layout must be one of {MEMORY_LAYOUTS}, got {layout!r}")
        self.n = n
        self.m = m
        self.layout = layout
        self.dtype = np.dtype(dtype)
        self._fill = self.dtype.type(fill)
        # row-major over (i1, j1): row i1 holds windows (i1, i1) .. (i1, n-1)
        self._row_start = np.zeros(n + 1, dtype=np.int64)
        for i in range(n):
            self._row_start[i + 1] = self._row_start[i] + (n - i)
        self._buf = np.full(
            (int(self._row_start[n]), m, m), self._fill, dtype=self.dtype
        )
        self._alloc: set[tuple[int, int]] = set()
        self._shift: dict[tuple[int, int], np.ndarray] = {}
        self._aux: dict[tuple[int, int], dict[str, object]] = {}

    # -- packed addressing ---------------------------------------------------

    def offset(self, i1: int, j1: int) -> int:
        """O(1) affine index of window ``(i1, j1)`` in the packed buffer."""
        self._check_window(i1, j1)
        return int(self._row_start[i1]) + (j1 - i1)

    @property
    def packed(self) -> np.ndarray:
        """The whole ``(T1(n), m, m)`` packed buffer (row-major windows)."""
        return self._buf

    # -- window management --------------------------------------------------

    def windows(self) -> Iterator[tuple[int, int]]:
        """All outer windows in diagonal order."""
        for span in range(self.n):
            for i1 in range(self.n - span):
                yield (i1, i1 + span)

    def has(self, i1: int, j1: int) -> bool:
        return (i1, j1) in self._alloc

    def allocated(self) -> list[tuple[int, int]]:
        """The windows currently allocated (unordered snapshot)."""
        return list(self._alloc)

    def alloc(self, i1: int, j1: int) -> np.ndarray:
        """Allocate (or return) the inner matrix of window ``(i1, j1)``.

        The returned array is a view into the packed buffer, in *logical*
        (i2, j2) coordinates regardless of layout — option 2 is
        materialised through views on read/write.
        """
        off = self.offset(i1, j1)
        key = (i1, j1)
        if key not in self._alloc:
            self._alloc.add(key)
        else:
            # the caller may mutate the returned matrix; a cached shifted
            # copy of the old contents would go stale
            self._shift.pop(key, None)
            self._aux.pop(key, None)
        return self._buf[off]

    def inner(self, i1: int, j1: int) -> np.ndarray:
        """Inner matrix of a window; raises when not yet allocated."""
        off = self.offset(i1, j1)
        if (i1, j1) not in self._alloc:
            raise KeyError(f"window ({i1}, {j1}) not computed yet")
        return self._buf[off]

    def set_inner(self, i1: int, j1: int, values: np.ndarray) -> None:
        off = self.offset(i1, j1)
        if values.shape != (self.m, self.m):
            raise ValueError(
                f"inner matrix must be {(self.m, self.m)}, got {values.shape}"
            )
        np.copyto(self._buf[off], values, casting="unsafe")
        self._alloc.add((i1, j1))
        self._shift.pop((i1, j1), None)
        self._aux.pop((i1, j1), None)

    def shifted(self, i1: int, j1: int) -> np.ndarray:
        """Split-shifted copy ``B'[k2, j2] = B[k2+1, j2]`` (-inf last row).

        This is the right-operand form every R0 product consumes (see
        :func:`repro.core.dmp._shifted`).  It is computed once per
        *completed* window and cached, instead of being rebuilt by every
        consumer window — dropping O(N^3) M x M allocations per run.
        Callers must only ask for windows whose values are final;
        :meth:`alloc`, :meth:`set_inner` and :meth:`free` invalidate the
        cached copy.
        """
        key = (i1, j1)
        s = self._shift.get(key)
        if s is None:
            b = self.inner(i1, j1)
            s = np.full_like(b, self._fill)
            s[:-1, :] = b[1:, :]
            self._shift[key] = s
        return s

    def aux(self, i1: int, j1: int, name: str, build) -> object:
        """Kernel-owned derived data cached against a *completed* window.

        ``build()`` is called once per ``(window, name)`` and the result
        cached until the window's values change (:meth:`alloc`,
        :meth:`set_inner` and :meth:`free` invalidate, exactly like the
        :meth:`shifted` cache).  This keeps backend-specific derived
        forms — e.g. the Four-Russians difference encodings, computed
        once per source window but consumed by O(N) later windows —
        colocated with the values they are derived from, without the
        core table depending on any kernel module.
        """
        key = (i1, j1)
        slot = self._aux.setdefault(key, {})
        val = slot.get(name)
        if val is None:
            val = build()
            slot[name] = val
        return val

    def free(self, i1: int, j1: int) -> None:
        """Drop a window's storage (used by windowed/streaming modes)."""
        if (i1, j1) in self._alloc:
            self._alloc.discard((i1, j1))
            self._buf[self.offset(i1, j1)].fill(self._fill)
        self._shift.pop((i1, j1), None)
        self._aux.pop((i1, j1), None)

    # -- element access ------------------------------------------------------

    def get(self, i1: int, j1: int, i2: int, j2: int) -> float:
        """``F[i1, j1, i2, j2]`` for an in-domain point."""
        self._check_window(i1, j1)
        if not 0 <= i2 <= j2 < self.m:
            raise IndexError(f"inner window ({i2}, {j2}) out of range")
        return float(self.inner(i1, j1)[i2, j2])

    def physical(self, i1: int, j1: int) -> np.ndarray:
        """The window's matrix in its *physical* layout.

        Option 1 is the identity; option 2 shifts row ``i2`` left by
        ``i2`` so the diagonal maps to column 0.
        """
        logical = self.inner(i1, j1)
        if self.layout == "option1":
            return logical
        out = np.full_like(logical, self._fill)
        for i2 in range(self.m):
            out[i2, : self.m - i2] = logical[i2, i2:]
        return out

    # -- accounting (Figs. 7/9 and the §IV-B-c discussion) --------------------

    def bytes_allocated(self) -> int:
        """Bounding-box bytes of the windows logically allocated so far."""
        return len(self._alloc) * self.m * self.m * self.dtype.itemsize

    def bytes_touched(self) -> int:
        """Bytes of the triangular halves that the computation touches."""
        per_window = self.m * (self.m + 1) // 2 * self.dtype.itemsize
        return len(self._alloc) * per_window

    def full_allocation_bytes(self) -> int:
        """Bytes if every outer window were allocated (the M^2 N^2 box)."""
        return self.n * (self.n + 1) // 2 * self.m * self.m * self.dtype.itemsize

    def _check_window(self, i1: int, j1: int) -> None:
        if not 0 <= i1 <= j1 < self.n:
            raise IndexError(f"outer window ({i1}, {j1}) out of range for n={self.n}")

    def __repr__(self) -> str:
        return (
            f"FTable(n={self.n}, m={self.m}, layout={self.layout!r}, "
            f"windows={len(self._alloc)})"
        )
