"""Deterministic randomness and quasi-random point rules.

All random draws in the package go through :func:`uniform_doubles`, which
maps the raw PCG64 bit stream to doubles by the 53-bit shift rule
``(word >> 11) * 2**-53``, or through :func:`raw_blocks`, which yields the
raw words themselves a block at a time (the chaos game compares them with
integer thresholds that give the same letters as those doubles).  The bit
stream of a seeded PCG64 instance is fixed across platforms and numpy
versions, so every consumer is bit-exact reproducible from its integer seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_PRIMES = (2, 3)


def _generator(seed) -> np.random.PCG64:
    """The PCG64 bit generator seeded with `seed` (int or tuple)."""
    return np.random.PCG64(np.random.SeedSequence(seed if isinstance(seed, int) else list(seed)))


def bit_stream(seed, count: int) -> np.ndarray:
    """Raw uint64 words from PCG64 seeded with `seed` (int or tuple)."""
    return _generator(seed).random_raw(count)


def uniform_doubles(seed, count: int) -> np.ndarray:
    """`count` doubles in [0, 1), bit-exact for a given seed."""
    return (bit_stream(seed, count) >> np.uint64(11)) * 2.0**-53


def raw_blocks(seed, count: int, block: int, start: int):
    """The words start .. count - 1 of bit_stream(seed, count), `block` at
    a time.

    The generator is advanced past the first `start` words without drawing
    them (PCG64 draws one step per word) and then drawn from in order, so
    the blocks concatenate to the same words; only one block is held at a
    time.  The last block is shorter when `block` does not divide
    count - start.
    """
    bits = _generator(seed)
    bits.advance(start)
    for first in range(start, count, block):
        yield bits.random_raw(min(block, count - first))


def _radical_inverse(base: int, k: int) -> float:
    inv = 0.0
    digit = 1.0 / base
    while k > 0:
        k, rem = divmod(k, base)
        inv += rem * digit
        digit /= base
    return inv


@lru_cache(maxsize=64)
def halton_points(count: int, dim: int) -> np.ndarray:
    """First `count` Halton points in [0,1)^dim, starting at index 1: one
    prime of `_PRIMES` per axis, so dim <= 2, the box's dimensions.

    The point set is deliberately not symmetric under coordinate flips:
    its mean sits off the cube center, which the sampling rules rely on
    to detect orientation-reversing branches.
    """
    if dim > len(_PRIMES):
        raise ValueError(f"halton_points supports dim <= {len(_PRIMES)}")
    pts = np.empty((count, dim))
    for a in range(dim):
        base = _PRIMES[a]
        pts[:, a] = [_radical_inverse(base, k) for k in range(1, count + 1)]
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True)
class TrigSymbol:
    """a(x) = b0 + slope . x + sum_j amp[j] cos(pi k[j] . x + ph[j]), with a
    Lipschitz bound.

    Only its parameters are kept: the covariance check takes the difference
    of a's means over the cells' averaging points in closed form
    (`operators.trig_tail_blocks`), so nothing evaluates it pointwise.
    """

    b0: float
    slope: np.ndarray  # (d,)
    k: np.ndarray      # (modes, d) frequencies, in units of pi
    amp: np.ndarray    # (modes,)
    ph: np.ndarray     # (modes,)
    lip_bound: float


def random_trig_symbol(seed, dim: int) -> TrigSymbol:
    """Seeded Lipschitz symbol: affine part plus two small cosine modes.

    The affine part dominates, so the gradient field is nearly constant
    and residual-versus-depth ratios measured from these symbols are
    stable across refinement levels.
    """
    u = uniform_doubles(seed, 4 * dim + 7)
    b0 = 2.0 * u[0] - 1.0
    slope = 0.6 + 0.6 * u[1 : 1 + dim]
    signs = np.where(u[1 + dim : 1 + 2 * dim] < 0.5, -1.0, 1.0)
    slope = slope * signs
    k1 = np.rint(1 + u[1 + 2 * dim : 1 + 3 * dim]).astype(float)
    k2 = np.rint(1 + 1.5 * u[1 + 3 * dim : 1 + 4 * dim]).astype(float)
    amp1 = 0.05 + 0.08 * u[4 * dim + 1]
    amp2 = 0.05 + 0.08 * u[4 * dim + 2]
    ph1 = 2 * np.pi * u[4 * dim + 3]
    ph2 = 2 * np.pi * u[4 * dim + 4]
    lip = float(np.linalg.norm(slope)) + amp1 * np.pi * float(np.linalg.norm(k1)) \
        + amp2 * np.pi * float(np.linalg.norm(k2))
    return TrigSymbol(float(b0), slope, np.stack([k1, k2]), np.array([amp1, amp2]),
                      np.array([ph1, ph2]), float(lip))
