"""Vectorized window-kernel emitter: space-time map + tiling → numpy source.

A :class:`~repro.polyhedral.schedule.Schedule` over the R0 reduction
indices ``(s, k)`` — ``s`` the stacked ``k1`` split, ``k`` the inner
split column ``k2`` — plus a column-tile width is lowered to a
self-contained Python module implementing one *whole-window* R0+R3+R4
accumulation directly on the packed :class:`~repro.core.tables.FTable`
slab layout:

* the left operands of every split are consecutive windows of one outer
  row, so the kernel reads them through a single zero-copy view of the
  ``K`` packed slabs starting at ``offset(i1, i1)`` instead of the
  gathered ``astack`` copy the generic batched path makes;
* the raw right operands of R3 are recovered from the *shifted* stack
  (``raw[i2] == shifted[i2 - 1]`` for ``i2 >= 1``) plus a gathered row 0,
  eliminating the ``braw`` stack copy as well.

Of the three K x M x M stack copies per window on the generic path, the
generated kernels keep only the shifted-B gather.  The emitted modules
are the Table VI fixture (``bench_table6_codegen_loc.py`` counts their
lines); no kernel backend runs them, because the numpy-emitted kernels
measured at most 1.05x over ``numpy-batched`` (``BENCH_codegen.json``).

Legality: R0 is a pure ⊕-reduction over ``(s, k)`` with a commutative,
associative ⊕, so *any* enumeration order of the reduction domain is a
valid schedule — but the time map must be a **bijection** on the index
set so a non-idempotent ⊕ (log-sum-exp) combines every candidate exactly
once.  :func:`loop_order` enforces exactly that: each time dimension a
distinct reduction index with coefficient 1 and no constant part.

The generated module is semiring-parametric: it binds the ⊕/⊗ ufuncs
from a :class:`~repro.semiring.semiring.Semiring` descriptor at load
time (``make_kernel(semiring)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from textwrap import dedent, indent

from ..schedule import Schedule

__all__ = [
    "REDUCTION_INDICES",
    "ScheduleLegalityError",
    "KernelSchedule",
    "CODEGEN_SCHEDULES",
    "get_kernel_schedule",
    "loop_order",
    "is_legal_schedule",
    "generate_window_kernel",
]

#: the R0 reduction indices a window schedule maps: ``s`` enumerates the
#: stacked k1 splits, ``k`` the inner split column k2
REDUCTION_INDICES = ("s", "k")


class ScheduleLegalityError(ValueError):
    """A space-time map that cannot drive the window-kernel emitter."""


def loop_order(schedule: Schedule) -> tuple[str, ...]:
    """Reduction-loop nesting implied by ``schedule``'s time map.

    Raises :class:`ScheduleLegalityError` unless the map is a pure
    permutation of :data:`REDUCTION_INDICES` — the precise condition
    under which executing the ⊕-reduction in time order combines every
    ``(s, k)`` candidate exactly once (required by non-idempotent ⊕).
    """
    mapping = schedule.mapping
    if tuple(mapping.inputs) != REDUCTION_INDICES:
        raise ScheduleLegalityError(
            f"window schedules map the reduction indices {REDUCTION_INDICES}, "
            f"got inputs {tuple(mapping.inputs)}"
        )
    order: list[str] = []
    for expr in mapping.exprs:
        active = {n: expr.coeff(n) for n in expr.names if expr.coeff(n) != 0}
        if expr.const != 0 or len(active) != 1 or set(active.values()) != {1}:
            raise ScheduleLegalityError(
                f"time dimension {expr} is not a bare reduction index; "
                "the emitter requires a permutation schedule"
            )
        order.append(next(iter(active)))
    if sorted(order) != sorted(REDUCTION_INDICES):
        raise ScheduleLegalityError(
            f"time map touches {tuple(order)}; a legal window schedule is "
            f"a bijection on {REDUCTION_INDICES}"
        )
    return tuple(order)


def is_legal_schedule(schedule: Schedule) -> bool:
    """True when :func:`loop_order` accepts ``schedule``."""
    try:
        loop_order(schedule)
    except ScheduleLegalityError:
        return False
    return True


@dataclass(frozen=True)
class KernelSchedule:
    """A named, emitter-ready window schedule."""

    name: str
    schedule: Schedule
    description: str = ""

    def __post_init__(self) -> None:
        loop_order(self.schedule)  # fail fast on illegal maps

    @property
    def order(self) -> tuple[str, ...]:
        return loop_order(self.schedule)

    @property
    def time_map(self) -> str:
        return str(self.schedule.mapping)


#: the shipped schedule candidates.  ``kmajor`` is the generic batched
#: path's order (k outer, whole split stack fused per step — the ``s``
#: time dimension is "parallel" in the AlphaZ sense: one vector op);
#: ``smajor`` walks splits outermost with 2-D row slabs per step, the
#: order the paper's per-split kernels use.
CODEGEN_SCHEDULES: tuple[KernelSchedule, ...] = (
    KernelSchedule(
        "kmajor",
        Schedule.parse("R0", "(s, k -> k, s)", parallel_dims=(1,)),
        "k2 outer; every split's step fused into one stacked 3-D op",
    ),
    KernelSchedule(
        "smajor",
        Schedule.parse("R0", "(s, k -> s, k)"),
        "split outer; per-split 2-D row slabs (no cross-split scratch)",
    ),
)

_BY_NAME = {ks.name: ks for ks in CODEGEN_SCHEDULES}


def get_kernel_schedule(name: str) -> KernelSchedule:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel schedule {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


# -- source emission ----------------------------------------------------------

def _r0_vector_body(order: tuple[str, ...], wj: int) -> str:
    """The schedule-specific R0 accumulation, vector form.

    Every variant applies, per output cell, the identical sequence of
    ⊕-accumulations a legal enumeration of the ``(s, k)`` domain yields:
    ``kmajor`` reduces the whole stack per ``k`` step (bit-identical to
    the generic batched kernel for *any* engine semiring), ``smajor``
    accumulates per split (same bits under max-plus; equal within
    rounding for log-sum-exp).  Column tiling never reorders the per-cell
    sequence — each cell lives in exactly one column block.
    """
    if order == ("k", "s"):
        if wj == 0:
            return dedent(
                """\
                for _k in range(m - 1):
                    _rows = _k + 1
                    _c0 = _k + 1
                    _w = m - _c0
                    _t = flat_t[: K * _rows * _w].reshape(K, _rows, _w)
                    _r = flat_r[: _rows * _w].reshape(_rows, _w)
                    _cblk = acc[:_rows, _c0:]
                    mul(aslab[:, :_rows, _k, None], bstack[:, _k, None, _c0:], out=_t)
                    reduce(_t, axis=0, out=_r)
                    accum(_cblk, _r, out=_cblk)
                """
            )
        return dedent(
            f"""\
            for _j0 in range(1, m, {wj}):
                _jhi = min(_j0 + {wj}, m)
                for _k in range(_jhi - 1):
                    _rows = _k + 1
                    _c0 = _k + 1 if _k + 1 > _j0 else _j0
                    _w = _jhi - _c0
                    _t = flat_t[: K * _rows * _w].reshape(K, _rows, _w)
                    _r = flat_r[: _rows * _w].reshape(_rows, _w)
                    _cblk = acc[:_rows, _c0:_jhi]
                    mul(aslab[:, :_rows, _k, None], bstack[:, _k, None, _c0:_jhi], out=_t)
                    reduce(_t, axis=0, out=_r)
                    accum(_cblk, _r, out=_cblk)
            """
        )
    # order == ("s", "k")
    if wj == 0:
        return dedent(
            """\
            for _s in range(K):
                _a = aslab[_s]
                _b = bstack[_s]
                for _k in range(m - 1):
                    _rows = _k + 1
                    _c0 = _k + 1
                    _w = m - _c0
                    _t = flat_t[: _rows * _w].reshape(_rows, _w)
                    _cblk = acc[:_rows, _c0:]
                    mul(_a[:_rows, _k, None], _b[_k, None, _c0:], out=_t)
                    accum(_cblk, _t, out=_cblk)
            """
        )
    return dedent(
        f"""\
        for _s in range(K):
            _a = aslab[_s]
            _b = bstack[_s]
            for _j0 in range(1, m, {wj}):
                _jhi = min(_j0 + {wj}, m)
                for _k in range(_jhi - 1):
                    _rows = _k + 1
                    _c0 = _k + 1 if _k + 1 > _j0 else _j0
                    _w = _jhi - _c0
                    _t = flat_t[: _rows * _w].reshape(_rows, _w)
                    _cblk = acc[:_rows, _c0:_jhi]
                    mul(_a[:_rows, _k, None], _b[_k, None, _c0:_jhi], out=_t)
                    accum(_cblk, _t, out=_cblk)
        """
    )


_MODULE_TEMPLATE = '''\
"""Auto-generated window kernel — repro.polyhedral.codegen.vectorize.

schedule : {name}  (time map {time_map}; loop order {order})
tile_wj  : {wj}

Whole-window R0+R3+R4 accumulation on the packed FTable slab layout.
Do not edit: regenerated from the schedule.
"""
SCHEDULE = {name!r}
TIME_MAP = {time_map!r}
LOOP_ORDER = {order!r}
TILE_WJ = {wj}


def make_kernel(semiring):
    """Bind the ⊕/⊗ ufuncs of ``semiring``; return the window kernel.

    kernel(aslab, bstack, brow0, s1l, s1r, acc, tmp, red) -> acc

    * aslab  (K, m, m): zero-copy row slab — aslab[s] = F[i1, i1+s]
    * bstack (K, m, m): shifted right operands — bstack[s] = shifted(i1+s+1, j1)
    * brow0  (K, m):    row 0 of each *raw* right operand F[i1+s+1, j1]
    * s1l    (K,):      S1[i1, k1] biases (R3)
    * s1r    (K,):      S1[k1+1, j1] biases (R4)
    * acc    (m, m):    the window accumulator, updated in place
    * tmp    (>= K*m*m elements) / red (>= m*m): contiguous scratch

    Rows >= 1 of every raw right operand equal rows 0..m-2 of its
    shifted twin, so R3 runs off ``bstack`` plus ``brow0`` — the raw
    stack is never materialized.
    """
    mul = semiring.mul
    accum = semiring.add
    reduce = semiring.add_reduce

    def kernel(aslab, bstack, brow0, s1l, s1r, acc, tmp, red):
        K = aslab.shape[0]
        m = acc.shape[0]
        if K == 0:
            return acc
        if not (tmp.flags["C_CONTIGUOUS"] and red.flags["C_CONTIGUOUS"]):
            raise ValueError("generated kernel requires contiguous scratch")
        flat_t = tmp.reshape(-1)
        flat_r = red.reshape(-1)
        # R0 — schedule {name}
{r0_vector}
        # R3: raw rows >= 1 recovered from the shifted stack, row 0 gathered
        if m > 1:
            _t = flat_t[: K * (m - 1) * m].reshape(K, m - 1, m)
            _r = flat_r[: (m - 1) * m].reshape(m - 1, m)
            mul(bstack[:, : m - 1, :], s1l[:, None, None], out=_t)
            reduce(_t, axis=0, out=_r)
            _rows1 = acc[1:, :]
            accum(_rows1, _r, out=_rows1)
        _t0 = flat_t[: K * m].reshape(K, m)
        _r0 = flat_r[:m]
        mul(brow0, s1l[:, None], out=_t0)
        reduce(_t0, axis=0, out=_r0)
        _row0 = acc[0]
        accum(_row0, _r0, out=_row0)
        # R4: left operands straight off the packed row slab
        _t = flat_t[: K * m * m].reshape(K, m, m)
        mul(aslab, s1r[:, None, None], out=_t)
        reduce(_t, axis=0, out=red)
        accum(acc, red, out=acc)
        return acc

    return kernel
'''


def generate_window_kernel(ks: KernelSchedule | str, tile_wj: int = 0) -> str:
    """Emit the generated-kernel module source for one (schedule, tile)."""
    if isinstance(ks, str):
        ks = get_kernel_schedule(ks)
    if tile_wj < 0:
        raise ValueError(f"tile width must be >= 0 (0 = untiled), got {tile_wj}")
    order = ks.order
    return _MODULE_TEMPLATE.format(
        name=ks.name,
        time_map=ks.time_map,
        order=order,
        wj=tile_wj,
        r0_vector=indent(_r0_vector_body(order, tile_wj), " " * 8),
    )

