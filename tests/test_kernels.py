"""Oracle-pass kernel against the op algebra.

segment_pass(psi, flip, d_w) must be a pure permutation: load Alice's bits
into the cache (one XOR swap per set bit), apply the gadget-controlled
answer flip per block against Bob's remembered values, then unload the
cache. Its closed form, with the flip index flip_masks tabulates per input
pair, must agree bit for bit with the same walk written step by step in ops
objects, on one state or on a stack of states from different pairs, and
leave padding blocks alone.
"""

import numpy as np
import pytest

from twoway.boolfn import Gadget, and_gadget, ip_gadget
from twoway.kernels import flip_masks, segment_pass
from twoway.ops import CacheFlipOp, GadgetFlipOp


def rand_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return (psi / np.linalg.norm(psi)).astype(np.complex128)


def gflip_table(gadget):
    return np.array(gadget.table(), dtype=np.uint8)


def ops_reference(psi, xb, yb, m, d_w, gadget):
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
        yv = int("".join(map(str, yb[blk * m:(blk + 1) * m])), 2)
        flips = tuple(c for c in range(cache_dim) if table[c][yv])
        psi = GadgetFlipOp(cache_dim, p_pad, d_w, blk, flips).apply(psi)
    for op in loads:
        psi = op.apply(psi)
    return psi


def one_pass(psi, xb, yb, m, d_w, gadget, p_pad):
    """segment_pass on a single state, through a one-lane flip index."""
    masks = flip_masks(xb[None], yb[None], m, gflip_table(gadget), p_pad)
    segment_pass(psi[None], np.nonzero(masks), d_w)


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
    yb = rng.integers(0, 2, n).astype(np.uint8)
    shape = (1 << m, p + pad, 2, d_w)
    psi = rand_state(int(np.prod(shape)), n + m)
    got = psi.copy()
    one_pass(got, xb, yb, m, d_w, gadget, p + pad)
    want = ops_reference(psi.copy(), xb, yb, m, d_w, gadget)
    assert np.array_equal(got, want)
    assert np.array_equal(got.reshape(shape)[:, p:], psi.reshape(shape)[:, p:])


def test_kernel_pass_is_an_involution():
    # load, flip, unload are each involutions arranged palindromically, so
    # running the whole pass twice must restore the vector bit for bit
    n, d_w = 6, 2
    rng = np.random.default_rng(9)
    xb = rng.integers(0, 2, n).astype(np.uint8)
    yb = rng.integers(0, 2, n).astype(np.uint8)
    psi = rand_state(2 * n * 2 * d_w, 9)
    got = psi.copy()
    one_pass(got, xb, yb, 1, d_w, and_gadget(), n)
    assert not np.array_equal(got, psi)
    one_pass(got, xb, yb, 1, d_w, and_gadget(), n)
    assert np.array_equal(got, psi)


XOR = Gadget("xor1", 1, lambda a, b: a[0] ^ b[0])


@pytest.mark.parametrize("gadget,n,pad", [
    (and_gadget(), 6, 2), (XOR, 6, 2), (ip_gadget(2), 8, 0), (ip_gadget(2), 6, 1),
], ids=["and", "xor", "ip2", "ip2-padded"])
def test_stacked_lanes_match_each_lane_stepped_alone(gadget, n, pad):
    # rows from different pairs, in the order the branch engine stacks
    # them: a lane's rows are adjacent and a lane may own several rows
    m, d_w = gadget.width, 2
    p_pad = n // m + pad
    rng = np.random.default_rng(n + 31 * m + pad)
    xb = rng.integers(0, 2, (5, n)).astype(np.uint8)
    yb = rng.integers(0, 2, (5, n)).astype(np.uint8)
    masks = flip_masks(xb, yb, m, gflip_table(gadget), p_pad)
    lane_of = [0, 0, 1, 2, 2, 2, 4]                # lane 3 has no pending state
    dim = (1 << m) * p_pad * 2 * d_w
    stack = np.stack([rand_state(dim, 70 + r) for r in range(len(lane_of))])
    got = stack.copy()
    segment_pass(got, np.nonzero(masks[lane_of]), d_w)
    for r, lane in enumerate(lane_of):
        want = ops_reference(stack[r].copy(), xb[lane], yb[lane], m, d_w, gadget)
        assert np.array_equal(got[r].view(np.uint64), want.view(np.uint64))
