"""Oracle-pass kernel: one simulated query pass as a closed-form permutation.

The compiled machine simulates an oracle call by sweeping the tape: it loads
x into the cache register (one XOR per set bit), flips the answer bit on
every block whose cache value c has g(c, y_i) = 1, then unloads x again. The
load and the unload cancel, so the whole pass swaps answer 0 and 1 on block
i at cache value c exactly when g(c ^ x_i, y_i) = 1, where x_i is x's block
i read MSB-first. Every operation is a coordinate permutation, so the result
is bitwise-identical to stepping the sweep one bit at a time.
"""

from __future__ import annotations

import numpy as np


def segment_pass(psi, xb, yv, m, d_w, gflip) -> None:
    """Apply one oracle-simulation pass to the machine vector, in place.

    psi: complex128 vector laid out as (cache, index, answer, work).
    xb:  uint8 x bits (length p * m), block i is xb[i*m:(i+1)*m] MSB-first.
    yv:  int64 y block values (length p); index blocks p..p_pad-1 are padding
         and stay untouched.
    gflip: uint8 gadget table, gflip[c][v] = g(c, v).
    """
    cache_dim = gflip.shape[0]
    p = yv.shape[0]
    view = psi.reshape(cache_dim, -1, 2, d_w)
    weights = 1 << np.arange(m - 1, -1, -1)
    xval = xb[: p * m].reshape(p, m) @ weights
    cache = np.arange(cache_dim)[:, None]
    c, i = np.nonzero(gflip[cache ^ xval, yv])
    view[c, i] = view[c, i, ::-1]
