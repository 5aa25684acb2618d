"""Oracle-pass kernel: one simulated query pass as a closed-form permutation.

The compiled machine simulates an oracle call by sweeping the tape: it loads
x into the cache register (one XOR per set bit), flips the answer bit on
every block whose cache value c has g(c, y_i) = 1, then unloads x again. The
load and the unload cancel, so the whole pass swaps answer 0 and 1 on block
i at cache value c exactly when g(c ^ x_i, y_i) = 1, where x_i is x's block
i read MSB-first. Every operation is a coordinate permutation, so the result
is bitwise-identical to stepping the sweep one bit at a time.

An input pair fixes which (cache value, block) cells the pass flips, so
flip_masks tabulates them once per pair (one lane). A plain oracle call on
a query algorithm's own register is the same pass with one cache value: it
flips the answer on every index i with z_i = 1 (oracle_masks). At cache
value 0 the pass flips exactly where the gadget word z_i = g(x_i, y_i) is 1
(gadget_words), and since every pass and every lifted operator keeps each
cache block to itself, a run from cache block 0 never leaves it: the branch
engine runs compiled rows on the algorithm's register with oracle_masks of
the gadget words, and flip_masks serves the full-register check
(compiler.verify_segment_equivalence). Either way the engine turns a
lane's masks into one flip index per stack of states.
"""

from __future__ import annotations

import numpy as np


def flip_masks(xb, yb, m, gflip, p_pad) -> np.ndarray:
    """The cells each lane's pass flips, as a (lanes, cache_dim * p_pad)
    bool array laid out as (cache, index).

    xb, yb: uint8 x and y bits, one row of p * m per lane; block i of a row
            is bits i*m..(i+1)*m-1, MSB-first. Index blocks p..p_pad-1 are
            padding and are never flipped.
    gflip:  uint8 gadget table, gflip[c][v] = g(c, v).
    """
    xval, yval = _block_values(xb, m), _block_values(yb, m)
    lanes, p = xval.shape
    cache_dim = gflip.shape[0]
    masks = np.zeros((lanes, cache_dim, p_pad), dtype=bool)
    cache = np.arange(cache_dim)[:, None]
    masks[:, :, :p] = gflip[cache ^ xval[:, None, :], yval[:, None, :]]
    return masks.reshape(lanes, -1)


def gadget_words(xb, yb, m, gflip) -> np.ndarray:
    """Each lane's gadget word z_i = g(x block i, y block i), as a
    (lanes, p) uint8 array: the cache-value-0 cells of flip_masks, so
    oracle_masks on it gives the pass on the algorithm's own register."""
    return gflip[_block_values(xb, m), _block_values(yb, m)]


def _block_values(bits, m) -> np.ndarray:
    """(lanes, p): every m-bit block of every row, read MSB-first."""
    lanes, n = bits.shape
    return bits.reshape(lanes, n // m, m) @ (1 << np.arange(m - 1, -1, -1))


def oracle_masks(words, index_dim) -> np.ndarray:
    """The cells a plain oracle call flips on a query algorithm's own
    register, as a (lanes, index_dim) bool array: index value i of a lane
    iff its input word (a row of uint8 bits) has z_i = 1. Index values past
    the word are padding and query fixed 0s."""
    masks = np.zeros((len(words), index_dim), dtype=bool)
    masks[:, :words.shape[1]] = words
    return masks


def segment_pass(psi, flip, d_w) -> None:
    """Apply one oracle-simulation pass to a stack of states, in place.

    psi:  complex128 (rows, dim) array, each row laid out as (cell, answer,
          work) with d_w work values per answer.
    flip: (row, cell) index arrays, np.nonzero(masks[lane_of]) where
          lane_of gives each row's lane: the answer bit of those cells is
          swapped.
    """
    if not psi.flags.c_contiguous:
        raise ValueError("segment_pass works in place on a C-contiguous stack")
    view = psi.reshape(psi.shape[0], -1, 2, d_w)
    view[flip] = view[flip][:, ::-1]
