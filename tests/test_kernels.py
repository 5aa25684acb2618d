"""Oracle-pass kernel against the op algebra.

segment_pass(psi, xb, yv, m, d_w, gflip) must be a pure permutation: load
Alice's bits into the cache (one XOR swap per set bit), apply the
gadget-controlled answer flip per block against Bob's remembered values,
then unload the cache. Its closed form must agree bit for bit with the same
walk written step by step in ops objects, and leave padding blocks alone.
"""

import numpy as np
import pytest

from twoway.boolfn import and_gadget, ip_gadget
from twoway.kernels import segment_pass
from twoway.ops import CacheFlipOp, GadgetFlipOp


def rand_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return (psi / np.linalg.norm(psi)).astype(np.complex128)


def gflip_table(gadget):
    return np.array(gadget.table(), dtype=np.uint8)


def ops_reference(psi, xb, yv, m, d_w, gadget):
    """The same pass out of CacheFlipOp / GadgetFlipOp compositions."""
    cache_dim = 1 << m
    p = len(xb) // m
    p_pad = psi.size // (cache_dim * 2 * d_w)
    table = gadget.table()
    # load: per set x bit, XOR that bit of the cache on every block word
    loads = []
    for i, bit in enumerate(xb):
        if bit:
            blk, r = divmod(i, m)
            loads.append(CacheFlipOp(cache_dim, p_pad, d_w, blk, 1 << (m - 1 - r)))
    for op in loads:
        psi = op.apply(psi)
    for blk in range(p):
        flips = tuple(c for c in range(cache_dim) if table[c][yv[blk]])
        psi = GadgetFlipOp(cache_dim, p_pad, d_w, blk, flips).apply(psi)
    for op in loads:
        psi = op.apply(psi)
    return psi


@pytest.mark.parametrize("m,d_w,n,pad", [
    (1, 1, 6, 0), (1, 2, 4, 0), (2, 1, 6, 0), (3, 2, 6, 0),
    (1, 2, 16, 0), (2, 2, 8, 0), (3, 1, 9, 0), (1, 1, 64, 0),
    # padded index registers, as compiled grover-or has at n=6 and n=12
    (1, 2, 6, 2), (1, 1, 12, 4), (2, 1, 6, 1), (3, 2, 6, 2),
])
def test_kernel_matches_op_algebra(m, d_w, n, pad):
    gadget = and_gadget() if m == 1 else ip_gadget(m)
    p = n // m
    rng = np.random.default_rng(n * 7 + m)
    xb = rng.integers(0, 2, n).astype(np.uint8)
    yv = rng.integers(0, 1 << m, p).astype(np.int64)
    shape = (1 << m, p + pad, 2, d_w)
    psi = rand_state(int(np.prod(shape)), n + m)
    got = psi.copy()
    segment_pass(got, xb, yv, m, d_w, gflip_table(gadget))
    want = ops_reference(psi.copy(), xb, yv, m, d_w, gadget)
    assert np.array_equal(got, want)
    assert np.array_equal(got.reshape(shape)[:, p:], psi.reshape(shape)[:, p:])


def test_kernel_pass_is_an_involution():
    # load, flip, unload are each involutions arranged palindromically, so
    # running the whole pass twice must restore the vector bit for bit
    n, d_w = 6, 2
    rng = np.random.default_rng(9)
    xb = rng.integers(0, 2, n).astype(np.uint8)
    yv = rng.integers(0, 2, n).astype(np.int64)
    psi = rand_state(2 * n * 2 * d_w, 9)
    got = psi.copy()
    segment_pass(got, xb, yv, 1, d_w, gflip_table(and_gadget()))
    assert not np.array_equal(got, psi)
    segment_pass(got, xb, yv, 1, d_w, gflip_table(and_gadget()))
    assert np.array_equal(got, psi)
