"""Unit tests for the adaptive batch scheduler."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.api import bpmax
from repro.observe import collecting
from repro.rna.sequence import random_pair
from repro.serve.cache import ResultCache
from repro.serve.request import SubmitRequest
from repro.serve.scheduler import BatchScheduler


def _requests(pairs, **kw):
    return [SubmitRequest(a, b, id=f"r{i}", **kw) for i, (a, b) in enumerate(pairs)]


@pytest.fixture
def pairs(fuzz_rng):
    out = []
    for _ in range(12):
        n = int(fuzz_rng.integers(2, 12))
        m = int(fuzz_rng.integers(2, 12))
        s1, s2 = random_pair(n, m, int(fuzz_rng.integers(0, 2**31)))
        out.append((str(s1), str(s2)))
    return out


class TestCorrectness:
    def test_scores_match_direct_bpmax(self, pairs):
        with BatchScheduler(max_batch=4, max_delay_s=0.005) as sched:
            results = sched.serve_all(_requests(pairs))
        for (a, b), r in zip(pairs, results):
            assert r.ok, r.error
            assert r.score == bpmax(a, b).score

    def test_results_in_input_order(self, pairs):
        reqs = _requests(pairs)
        with BatchScheduler() as sched:
            results = sched.serve_all(reqs)
        assert [r.id for r in results] == [q.id for q in reqs]

    def test_structure_requests_carry_structure(self):
        with BatchScheduler() as sched:
            (r,) = sched.serve_all([SubmitRequest("GGGG", "CCCC", structure=True)])
        assert r.ok and r.structure is not None
        assert set(r.structure) == {"strand1", "strand2", "inter"}

    def test_variant_and_backend_respected(self):
        reqs = [
            SubmitRequest("GGGG", "CCCC", id="a", variant="coarse"),
            SubmitRequest("GGGG", "CCCC", id="b", variant="batched", backend="tiled"),
        ]
        with BatchScheduler(cache=0) as sched:
            results = sched.serve_all(reqs)
        assert all(r.ok and r.score == 12.0 for r in results)


class TestCachingAndCoalescing:
    def test_repeat_submissions_are_deduplicated(self):
        reqs = _requests([("GGGG", "CCCC")] * 6)
        with BatchScheduler() as sched:
            results = sched.serve_all(reqs)
            stats = sched.stats
        assert all(r.ok and r.score == 12.0 for r in results)
        # exactly one fresh computation; the rest coalesced or cache-hit
        fresh = [r for r in results if not r.cached]
        assert len(fresh) == 1
        assert stats.coalesced + stats.cache["hits"] == 5
        assert stats.batched_requests == 1

    def test_second_round_hits_cache(self):
        with BatchScheduler() as sched:
            sched.serve_all(_requests([("GCAU", "AUGC")]))
            (r2,) = sched.serve_all(_requests([("GCAU", "AUGC")]))
            stats = sched.stats
        assert r2.cached and r2.batch == -1
        assert stats.cache["hits"] == 1

    def test_normalized_duplicates_share_one_computation(self):
        reqs = [
            SubmitRequest("GGGG", "CCCC", id="ua"),
            SubmitRequest("gggg", "cccc", id="lc"),
            SubmitRequest("GGGG", "CCCC", id="ub"),
        ]
        with BatchScheduler() as sched:
            results = sched.serve_all(reqs)
            stats = sched.stats
        assert all(r.score == 12.0 for r in results)
        assert stats.batched_requests == 1

    def test_structure_follower_not_coalesced_onto_plain_primary(self):
        reqs = [
            SubmitRequest("GGGG", "CCCC", id="plain"),
            SubmitRequest("GGGG", "CCCC", id="rich", structure=True),
        ]
        with BatchScheduler() as sched:
            results = sched.serve_all(reqs)
        by_id = {r.id: r for r in results}
        assert by_id["plain"].structure is None
        assert by_id["rich"].structure is not None

    def test_external_cache_shared_between_schedulers(self):
        cache = ResultCache(capacity=16)
        with BatchScheduler(cache=cache) as s1:
            s1.serve_all(_requests([("GGGG", "CCCC")]))
        with BatchScheduler(cache=cache) as s2:
            (r,) = s2.serve_all(_requests([("GGGG", "CCCC")]))
        assert r.cached

    def test_cache_zero_disables_reuse(self):
        with BatchScheduler(cache=0) as sched:
            sched.serve_all(_requests([("GGGG", "CCCC")]))
            (r,) = sched.serve_all(_requests([("GGGG", "CCCC")]))
        assert not r.cached


class TestBatching:
    def test_same_shape_requests_share_a_batch(self):
        same_shape = [("GGGG", "CCCC"), ("AUAU", "UAUA"), ("GCGC", "AAAA")]
        with BatchScheduler(max_batch=3, max_delay_s=5.0) as sched:
            results = sched.serve_all(_requests(same_shape))
            stats = sched.stats
        assert {r.batch for r in results} == {1}
        assert stats.batches == 1 and stats.max_batch_size == 3

    def test_size_watermark_dispatches_without_flush(self):
        with BatchScheduler(max_batch=2, max_delay_s=60.0) as sched:
            futs = [
                sched.submit(SubmitRequest("GGGG", "CCCC", id="a")),
                sched.submit(SubmitRequest("AUAU", "UAUA", id="b")),
            ]
            # no flush: the size watermark alone must dispatch this batch
            results = [f.result(timeout=30) for f in futs]
        assert all(r.ok for r in results)

    def test_latency_watermark_dispatches_without_flush(self):
        with BatchScheduler(max_batch=1000, max_delay_s=0.02) as sched:
            fut = sched.submit(SubmitRequest("GGGG", "CCCC"))
            r = fut.result(timeout=30)
        assert r.ok and r.score == 12.0

    def test_different_shapes_split_batches(self):
        reqs = _requests([("GGGG", "CCCC"), ("GGGGG", "CCCCC")])
        with BatchScheduler(max_batch=16) as sched:
            results = sched.serve_all(reqs)
            stats = sched.stats
        assert results[0].batch != results[1].batch
        assert stats.batches == 2


class TestRobustness:
    def test_poisoned_member_does_not_stall_batch(self):
        reqs = [
            SubmitRequest("GGGG", "CCCC", id="good1"),
            SubmitRequest("", "CCCC", id="empty"),
            SubmitRequest("GXGG", "CCCC", id="badchar"),
            SubmitRequest("AUAU", "UAUA", id="good2"),
        ]
        with BatchScheduler() as sched:
            results = sched.serve_all(reqs)
            stats = sched.stats
        by_id = {r.id: r for r in results}
        assert by_id["good1"].ok and by_id["good2"].ok
        assert not by_id["empty"].ok
        assert by_id["badchar"].error_type == "InvalidSequenceError"
        assert stats.errors == 2 and stats.completed == 4

    def test_deadline_expired_while_queued(self):
        with BatchScheduler(max_batch=1000, max_delay_s=0.2) as sched:
            fut = sched.submit(
                SubmitRequest("GGGG", "CCCC", id="late", deadline_s=0.01)
            )
            time.sleep(0.05)  # let the budget lapse before dispatch
            sched.flush()
            r = fut.result(timeout=30)
        assert not r.ok
        assert r.error_type == "DeadlineExceeded"

    def test_generous_deadline_succeeds(self):
        with BatchScheduler() as sched:
            (r,) = sched.serve_all(
                [SubmitRequest("GGGG", "CCCC", deadline_s=30.0)]
            )
        assert r.ok and r.score == 12.0

    def test_errors_are_not_cached(self):
        with BatchScheduler() as sched:
            sched.serve_all([SubmitRequest("", "C", id="bad")])
            stats = sched.stats
        assert stats.cache["inserts"] == 0


class TestLifecycle:
    def test_submit_after_close_raises(self):
        sched = BatchScheduler()
        sched.close()
        with pytest.raises(RuntimeError, match="closed"):
            sched.submit(SubmitRequest("G", "C"))

    def test_close_is_idempotent(self):
        sched = BatchScheduler()
        sched.close()
        sched.close()

    def test_drain_waits_for_outstanding(self):
        with BatchScheduler(max_delay_s=0.001) as sched:
            futs = [sched.submit(r) for r in _requests([("GGGG", "CCCC")] * 3)]
            sched.drain()
            assert all(f.done() for f in futs)

    def test_stats_snapshot_is_detached(self):
        with BatchScheduler() as sched:
            sched.serve_all(_requests([("GGGG", "CCCC")]))
            snap = sched.stats
            snap.submitted = 999
            assert sched.stats.submitted == 1


class TestAsyncAdapters:
    def test_submit_async(self):
        async def go(sched):
            return await sched.submit_async(SubmitRequest("GGGG", "CCCC"))

        with BatchScheduler() as sched:
            r = asyncio.run(go(sched))
        assert r.ok and r.score == 12.0

    def test_serve_all_async_preserves_order(self, pairs):
        reqs = _requests(pairs[:6])

        async def go(sched):
            return await sched.serve_all_async(reqs)

        with BatchScheduler() as sched:
            results = asyncio.run(go(sched))
        assert [r.id for r in results] == [q.id for q in reqs]
        for (a, b), r in zip(pairs[:6], results):
            assert r.ok and r.score == bpmax(a, b).score


class TestObserveIntegration:
    def test_serving_counters_collected(self):
        with collecting() as c:
            with BatchScheduler() as sched:
                sched.serve_all(_requests([("GGGG", "CCCC")] * 3))
        assert c.requests_served == 3
        assert c.batches_dispatched == 1
        assert c.cache_misses >= 1


class TestCancellation:
    """close()/drain() semantics: a queued request always *resolves* —
    with its answer or a structured cancellation — never hangs."""

    def test_cancel_pending_resolves_queued_futures(self):
        sched = BatchScheduler(max_batch=1000, max_delay_s=60.0, workers=1)
        futs = [
            sched.submit(SubmitRequest("GGGG", "CCCC", id="a")),
            sched.submit(SubmitRequest("AUAUGG", "CCAUAU", id="b")),
        ]
        cancelled = sched.cancel_pending()
        assert cancelled == 2
        for f in futs:
            r = f.result(timeout=5)
            assert not r.ok
            assert r.error_type == "RequestCancelled"
        sched.close()

    def test_cancel_pending_covers_followers(self):
        sched = BatchScheduler(max_batch=1000, max_delay_s=60.0, workers=1)
        primary = sched.submit(SubmitRequest("GGGG", "CCCC", id="p"))
        follower = sched.submit(SubmitRequest("GGGG", "CCCC", id="f"))
        assert sched.cancel_pending() == 2
        for f in (primary, follower):
            assert f.result(timeout=5).error_type == "RequestCancelled"
        sched.close()

    def test_close_cancel_true_sheds_queued_work(self):
        sched = BatchScheduler(max_batch=1000, max_delay_s=60.0, workers=1)
        futs = [
            sched.submit(r)
            for r in _requests([("GGGG", "CCCC"), ("AUAU", "UAUA")])
        ]
        sched.close(cancel=True)
        results = [f.result(timeout=5) for f in futs]
        assert all(r.error_type == "RequestCancelled" for r in results)
        from repro.robust.errors import BpmaxError, RequestCancelled

        assert issubclass(RequestCancelled, BpmaxError)

    def test_close_default_still_completes_queued_work(self):
        sched = BatchScheduler(max_batch=1000, max_delay_s=60.0, workers=1)
        fut = sched.submit(SubmitRequest("GGGG", "CCCC", id="x"))
        sched.close()
        r = fut.result(timeout=30)
        assert r.ok and r.score == 12.0

    def test_cancelled_results_are_not_cached(self):
        sched = BatchScheduler(max_batch=1000, max_delay_s=60.0, workers=1)
        sched.submit(SubmitRequest("GGGG", "CCCC", id="a"))
        sched.cancel_pending()
        stats = sched.stats
        sched.close()
        assert stats.cache["inserts"] == 0


class TestFaultPlanPoisoning:
    """Satellite: a request whose engine run crashes (deterministically,
    via FaultPlan) fails only its own ServeResult."""

    def test_injected_crash_fails_only_its_request(self):
        from repro.robust import FaultPlan

        windows = [(i, j) for i in range(16) for j in range(16)]
        reqs = [
            SubmitRequest("GGGG", "CCCC", id="good1"),
            SubmitRequest(
                "GGGG",
                "CCCA",
                id="poisoned",
                faults=FaultPlan(seed=3, crash_windows=windows),
            ),
            SubmitRequest("AUAU", "UAUA", id="good2"),
        ]
        with BatchScheduler(cache=0) as sched:
            results = sched.serve_all(reqs)
            stats = sched.stats
        by_id = {r.id: r for r in results}
        assert by_id["good1"].ok and by_id["good1"].score == 12.0
        assert by_id["good2"].ok
        assert not by_id["poisoned"].ok
        assert by_id["poisoned"].error_type == "EngineFailure"
        assert stats.errors == 1 and stats.completed == 3

    def test_injected_crash_recovers_with_retry(self):
        from repro.robust import FaultPlan

        # one crash site, fired once: the retry's run sails past it
        with BatchScheduler(cache=0) as sched:
            (r,) = sched.serve_all(
                [
                    SubmitRequest(
                        "GGGG",
                        "CCCC",
                        id="flaky",
                        retries=1,
                        faults=FaultPlan(seed=3, crash_windows=[(1, 1)]),
                    )
                ]
            )
        assert r.ok and r.score == 12.0  # crash fires once; the retry lands
