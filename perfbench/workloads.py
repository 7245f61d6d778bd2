"""Seeded inputs for every benchmark workload.

Inputs are made here from the seed with the standard library only, so
the program under test receives plain sequences and nothing it could
key on.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import random

BASES = "ACGU"

#: fold-square: side of the random square pair of each plain call
FOLD_N = 24

#: scan-srna: query and exon lengths, and the CLI default window.  An
#: exon is a multiple of the CLI default stride (6) long, so a window
#: inside one exon starts at the same offset in every transcript
#: holding it.
SCAN_QUERY = 12
SCAN_EXON = 36
SCAN_WINDOW = 24

#: serve-http: a block of 20 requests holds each kind once per shape
#: slot: 80 % small (8x12) and 20 % large (16x24), the corners of
#: 8-16 x 12-24.  One in four asks for the structure and one in four
#: uses log-sum-exp (never both: traceback is max-plus only).  Sorted by
#: latency, small plain/structure requests fill 0-60 % and large ones
#: 80-95 %, so the median and the p87 tail each fall inside one group,
#: not on a boundary between groups.  The block order is one fixed
#: shuffle, so every seed offers the same work in the same pattern and
#: only the sequences change.
SERVE_SHAPES = ((8, 12), (8, 12), (8, 12), (8, 12), (16, 24))
SERVE_KINDS = ("structure", "logsumexp", "plain", "plain")
SERVE_ORDER = [(shape, kind) for shape in SERVE_SHAPES for kind in SERVE_KINDS]
random.Random("serve-order").shuffle(SERVE_ORDER)


def random_seq(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(BASES) for _ in range(n))


def fold_pairs(seed: int, n: int = FOLD_N):
    """Endless fresh random ``n x n`` pairs."""
    rng = random.Random(f"fold-square/{seed}")
    while True:
        yield random_seq(rng, n), random_seq(rng, n)


def scan_query(seed: int, length: int = SCAN_QUERY) -> str:
    return random_seq(random.Random(f"scan-srna/query/{seed}"), length)


def scan_targets(seed: int, exon: int = SCAN_EXON):
    """Endless transcript isoforms from one exon pool.

    Isoform ``k`` splices exons ``k`` and ``k + 1``, so each transcript
    shares one exon with the one before it.  At window 24 and stride 6 a
    72-nt isoform has 9 windows; the 3 inside its first exon were
    already scanned in the previous isoform, so exactly a third of the
    windows of every scan after the first repeat across targets.
    """
    rng = random.Random(f"scan-srna/exons/{seed}")
    prev = random_seq(rng, exon)
    while True:
        nxt = random_seq(rng, exon)
        yield prev + nxt
        prev = nxt


def serve_request(rng: random.Random, shape, kind: str, rid: str) -> dict:
    n, m = shape
    req = {"id": rid, "seq1": random_seq(rng, n), "seq2": random_seq(rng, m)}
    if kind == "structure":
        req["structure"] = True
    elif kind == "logsumexp":
        req["semiring"] = "logsumexp"
    return req


def serve_requests(seed: int, count: int) -> list[dict]:
    """``count`` unique wire requests with the serve mix."""
    rng = random.Random(f"serve/{seed}")
    out = []
    while len(out) < count:
        for shape, kind in SERVE_ORDER[: count - len(out)]:
            out.append(serve_request(rng, shape, kind, f"r{len(out)}"))
    return out


def serve_warmups(seed: int) -> list[dict]:
    """One small warm-up request of each kind."""
    rng = random.Random(f"serve-warmup/{seed}")
    return [serve_request(rng, (8, 12), kind, f"warm-{kind}")
            for kind in ("plain", "structure", "logsumexp")]
