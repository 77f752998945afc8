"""Counter-based random streams for reproducible parallel Monte Carlo.

Every stochastic routine in the package receives a ``numpy.random.Generator``.
Experiments derive independent generators from a master seed with
:func:`stream`, which keys a Philox counter-based engine by
``(master_seed, tag, index)``. Streams are independent by construction, do
not require coordination between workers, and are stable across platforms
and process layouts.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream"]


def _key128(master_seed: int, tag: str, index: int) -> np.ndarray:
    raw = f"{master_seed}|{tag}|{index}".encode()
    digest = hashlib.blake2b(raw, digest_size=16).digest()
    return np.frombuffer(digest, dtype=np.uint64)


def stream(master_seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Return the Philox generator keyed by (master_seed, tag, index)."""
    return np.random.Generator(np.random.Philox(key=_key128(master_seed, tag, index)))
