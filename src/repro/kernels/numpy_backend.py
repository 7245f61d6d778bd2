"""The default NumPy kernel backend, ``numpy-batched``.

It stacks every ``k1`` split into one 3-D block and reduces with
whole-array ops (O(M) interpreter dispatches per window).  It computes
the exact same set of float32 sums as the paper's row-vectorized kernel
(:func:`~repro.semiring.maxplus.maxplus_matmul_vectorized`, kept for the
``DMP_KERNELS`` fixtures), and max is order-independent, so the two are
bit-identical to each other and to the scalar references.
"""

from __future__ import annotations

import numpy as np

from ..semiring.maxplus import maxplus_batched
from .backend import KernelBackend, register_backend

__all__ = ["NUMPY_BATCHED_BACKEND"]


def _matmul_batched(a: np.ndarray, bs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Single-split product through the batched primitive (stack of one)."""
    return maxplus_batched(a[None], bs[None], out)


NUMPY_BATCHED_BACKEND = register_backend(
    KernelBackend(
        "numpy-batched",
        matmul=_matmul_batched,
        batched_r0=maxplus_batched,
        description="stacked 3-D whole-array reduction over all k1 splits "
        "(default)",
        capabilities={"threads": True, "workspace_reuse": True},
        semirings=("max-plus", "logsumexp"),
    )
)
