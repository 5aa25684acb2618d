"""The per-pair reference accumulation that sweep-row tests compare with:
one run at a time, through the accumulator every row uses."""

import numpy as np

from twoway.boolfn import bit_string
from twoway.harness import _pair_bits


def row_pairs(lang, n: int, samples: int, seed=0) -> list:
    """A sweep row's (x, y) pairs as strings, in row order."""
    xs, ys, xi, yi = _pair_bits(lang, n, samples, seed)
    return [(bit_string(xs[i]), bit_string(ys[j])) for i, j in zip(xi.tolist(), yi.tolist())]


def add_pair(acc, lang, x: str, y: str, prob: float, t_run: int, visited: int,
             crossings: int) -> None:
    """Add one run on (x, y) to acc as a one-row batch."""
    def row(side):
        return np.array([[int(b) for b in side]], dtype=np.uint8)

    acc.add_lanes(row(x), row(y), np.array([bool(lang.value(x, y))]), np.array([prob]),
                  np.array([t_run]), np.array([visited]), np.array([crossings]))
