"""Vectorized window-kernel emitter: legality, source shape, conformance.

The emitter lowers a legal space-time map over the R0 reduction indices
``(s, k)`` plus an optional column tile into a complete python module.
This suite pins three contracts:

* **legality** — only bijective permutations of ``(s, k)`` are accepted
  (each time expression one plain variable, unit coefficient, zero
  constant); anything else raises :class:`ScheduleLegalityError`;
* **source shape** — generated modules carry their provenance constants
  and compile standalone (no imports beyond numpy);
* **conformance** — for every shipped schedule × column tile, the
  generated window kernel reproduces the reference semiring kernels on
  randomized window data: the ``kmajor`` order is bit-identical to
  ``semiring_batched`` in *both* algebras (it emits the same op
  sequence), ``smajor`` is bit-identical under max-plus (idempotent ⊕)
  and matches within 1e-9 under log-sum-exp.  Hypothesis also draws
  schedule, tile and window shape, and time maps for the legality check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.polyhedral.codegen.vectorize import (
    CODEGEN_SCHEDULES,
    REDUCTION_INDICES,
    KernelSchedule,
    ScheduleLegalityError,
    generate_window_kernel,
    get_kernel_schedule,
    is_legal_schedule,
    loop_order,
)
from repro.polyhedral.schedule import Schedule
from repro.semiring import LOG_SUM_EXP, MAX_PLUS
from repro.semiring.generic import semiring_batched, semiring_bias_reduce
from repro.semiring.maxplus import NEG_INF

SCHEDULE_NAMES = [ks.name for ks in CODEGEN_SCHEDULES]


def _compile(name: str, wj: int) -> dict:
    """Exec one emitted module; return its namespace."""
    namespace: dict = {}
    src = generate_window_kernel(name, wj)
    exec(compile(src, f"<{name}|wj{wj}>", "exec"), namespace)
    return namespace


def _parse(text: str, parallel_dims=()):
    return Schedule.parse("R0", text, parallel_dims=parallel_dims)


class TestLegality:
    @pytest.mark.parametrize(
        "text, expected_order",
        [
            ("(s, k -> k, s)", ("k", "s")),
            ("(s, k -> s, k)", ("s", "k")),
        ],
    )
    def test_permutations_accepted(self, text, expected_order):
        sched = _parse(text)
        assert loop_order(sched) == expected_order
        assert is_legal_schedule(sched)

    @pytest.mark.parametrize(
        "text",
        [
            "(s, k -> s, s)",  # not a bijection: k never scheduled
            "(s, k -> k + 1, s)",  # constant offset
            "(s, k -> 2*k, s)",  # non-unit coefficient
            "(s, k -> s + k, k)",  # multi-variable expression
        ],
    )
    def test_non_permutations_rejected(self, text):
        sched = _parse(text)
        with pytest.raises(ScheduleLegalityError):
            loop_order(sched)
        assert not is_legal_schedule(sched)

    @settings(max_examples=25, deadline=None)
    @given(
        exprs=st.lists(
            st.sampled_from(["s", "k", "s + k", "2*k", "k + 1", "0"]),
            min_size=2,
            max_size=2,
        )
    )
    def test_legal_iff_unit_permutation(self, exprs):
        sched = _parse(f"(s, k -> {exprs[0]}, {exprs[1]})")
        assert is_legal_schedule(sched) == (sorted(exprs) == ["k", "s"])

    def test_legality_error_is_value_error(self):
        assert issubclass(ScheduleLegalityError, ValueError)

    def test_kernel_schedule_fails_fast_on_illegal_map(self):
        with pytest.raises(ScheduleLegalityError):
            KernelSchedule("bad", _parse("(s, k -> s, s)"))

    def test_shipped_schedules_cover_both_orders(self):
        orders = {ks.order for ks in CODEGEN_SCHEDULES}
        assert orders == {("k", "s"), ("s", "k")}
        assert set(SCHEDULE_NAMES) == {"kmajor", "smajor"}

    def test_get_kernel_schedule_round_trip(self):
        for name in SCHEDULE_NAMES:
            assert get_kernel_schedule(name).name == name
        with pytest.raises(ValueError, match="unknown kernel schedule"):
            get_kernel_schedule("zmajor")

    def test_reduction_indices_pinned(self):
        # the emitter's contract with the R0 equation in alpha.py
        assert REDUCTION_INDICES == ("s", "k")


class TestGeneratedSource:
    def test_module_constants_and_entry_points(self):
        for name in SCHEDULE_NAMES:
            for wj in (0, 8):
                src = generate_window_kernel(name, wj)
                assert f"SCHEDULE = '{name}'" in src
                assert f"TILE_WJ = {wj}" in src
                assert "def make_kernel(" in src

    def test_compiles_standalone(self):
        ns = _compile("kmajor", 0)
        assert callable(ns["make_kernel"])
        assert ns["SCHEDULE"] == "kmajor"
        assert ns["TILE_WJ"] == 0

    def test_tile_changes_source(self):
        assert generate_window_kernel("kmajor", 0) != generate_window_kernel(
            "kmajor", 16
        )


def _window_case(rng, k, m, dtype):
    """Randomized window operands shaped like the engine hands them over.

    ``aslab`` mimics packed left triangles (upper triangular, -inf
    below the diagonal), ``bstack`` the shifted right triangles (last
    row all -inf), ``brow0`` row 0 of each *raw* right operand.  The
    raw stack the reference R3 reduce consumes is reassembled from
    ``brow0`` + ``bstack`` exactly as the emitted decomposition assumes
    (``raw[i2] == shifted[i2 - 1]`` for ``i2 >= 1``).
    """
    aslab = rng.uniform(-4, 4, size=(k, m, m)).astype(dtype)
    bstack = rng.uniform(-4, 4, size=(k, m, m)).astype(dtype)
    brow0 = rng.uniform(-4, 4, size=(k, m)).astype(dtype)
    tril = np.tril_indices(m, -1)
    for s in range(k):
        aslab[s][tril] = NEG_INF
        bstack[s][tril] = NEG_INF
    bstack[:, m - 1, :] = NEG_INF
    s1l = rng.uniform(0, 3, size=k).astype(dtype)
    s1r = rng.uniform(0, 3, size=k).astype(dtype)
    raw = np.concatenate([brow0[:, None, :], bstack[:, : m - 1, :]], axis=1)
    return aslab, bstack, brow0, s1l, s1r, raw


def _reference_window(sr, aslab, s1l, s1r, raw, bstack, m):
    """R0 + R3 + R4 through the reference semiring kernels."""
    acc = np.full((m, m), NEG_INF, dtype=sr.npdtype)
    semiring_batched(sr, aslab, bstack, acc, triangular=True)
    semiring_bias_reduce(sr, raw, s1l, acc)
    semiring_bias_reduce(sr, aslab, s1r, acc)
    return acc


def _run_generated(ns, sr, aslab, bstack, brow0, s1l, s1r, m, k):
    kern = ns["make_kernel"](sr)
    acc = np.full((m, m), NEG_INF, dtype=sr.npdtype)
    tmp = np.empty((k, m, m), dtype=sr.npdtype)
    red = np.empty((m, m), dtype=sr.npdtype)
    kern(aslab, bstack, brow0, s1l, s1r, acc, tmp, red)
    return acc


class TestConformance:
    @pytest.mark.parametrize("name", SCHEDULE_NAMES)
    @pytest.mark.parametrize(
        "k, m", [(1, 1), (4, 1), (1, 2), (3, 5), (6, 9), (9, 12), (2, 17)]
    )
    def test_every_schedule_and_tile_matches_reference(self, name, k, m):
        for wj in (0, 8, 16):
            ns = _compile(name, wj)
            for sr in (MAX_PLUS, LOG_SUM_EXP):
                rng = np.random.default_rng(1000 + 17 * k + m)
                aslab, bstack, brow0, s1l, s1r, raw = _window_case(
                    rng, k, m, sr.npdtype
                )
                expected = _reference_window(sr, aslab, s1l, s1r, raw, bstack, m)
                got = _run_generated(
                    ns, sr, aslab, bstack, brow0, s1l, s1r, m, k
                )
                label = f"{name} wj={wj} {sr.name}"
                if name == "kmajor" or sr is MAX_PLUS:
                    # same per-cell ⊕ sequence as the reference → bits
                    np.testing.assert_array_equal(got, expected, err_msg=label)
                else:
                    finite = np.isfinite(expected)
                    np.testing.assert_array_equal(
                        np.isfinite(got), finite, err_msg=label
                    )
                    np.testing.assert_allclose(
                        got[finite], expected[finite], atol=1e-9, err_msg=label
                    )

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(SCHEDULE_NAMES),
        wj=st.sampled_from([0, 2, 8, 16]),
        k=st.integers(1, 8),
        m=st.integers(1, 14),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_drawn_window_bit_identical_maxplus(self, name, wj, k, m, seed):
        """Drawn (schedule, tile, window shape): a future loop order or
        tile width is covered the day it is added to the candidates."""
        rng = np.random.default_rng(seed)
        aslab, bstack, brow0, s1l, s1r, raw = _window_case(
            rng, k, m, MAX_PLUS.npdtype
        )
        expected = _reference_window(MAX_PLUS, aslab, s1l, s1r, raw, bstack, m)
        got = _run_generated(
            _compile(name, wj), MAX_PLUS, aslab, bstack, brow0, s1l, s1r, m, k
        )
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=25, deadline=None)
    @given(
        name=st.sampled_from(SCHEDULE_NAMES),
        wj=st.sampled_from([0, 2, 8, 16]),
        k=st.integers(1, 8),
        m=st.integers(1, 14),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_drawn_window_close_logsumexp(self, name, wj, k, m, seed):
        rng = np.random.default_rng(seed)
        sr = LOG_SUM_EXP
        aslab, bstack, brow0, s1l, s1r, raw = _window_case(rng, k, m, sr.npdtype)
        expected = _reference_window(sr, aslab, s1l, s1r, raw, bstack, m)
        got = _run_generated(
            _compile(name, wj), sr, aslab, bstack, brow0, s1l, s1r, m, k
        )
        finite = np.isfinite(expected)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        np.testing.assert_allclose(got[finite], expected[finite], atol=1e-9)

    def test_noncontiguous_scratch_rejected(self):
        """``reshape(-1)`` on strided scratch would silently copy and
        break ``out=`` accumulation — the guard must catch it."""
        k, m = 2, 6
        kern = _compile("kmajor", 0)["make_kernel"](MAX_PLUS)
        rng = np.random.default_rng(5)
        aslab, bstack, brow0, s1l, s1r, _ = _window_case(
            rng, k, m, MAX_PLUS.npdtype
        )
        acc = np.full((m, m), NEG_INF, dtype=np.float32)
        bad_tmp = np.empty((k, m, 2 * m), dtype=np.float32)[:, :, ::2]
        red = np.empty((m, m), dtype=np.float32)
        with pytest.raises(ValueError, match="contiguous"):
            kern(aslab, bstack, brow0, s1l, s1r, acc, bad_tmp, red)
