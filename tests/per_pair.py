"""The per-pair reference that sweep-row tests compare with: runs collected
one pair at a time, made into a row by the function every sweep row goes
through (harness._row)."""

from dataclasses import astuple

import numpy as np

from twoway.boolfn import bit_string
from twoway.harness import _pair_bits, _row


def row_pairs(lang, n: int, samples: int, seed=0) -> list:
    """A sweep row's (x, y) pairs as strings, in row order."""
    xs, ys, xi, yi = _pair_bits(lang, n, samples, seed)
    return [(bit_string(xs[i]), bit_string(ys[j])) for i, j in zip(xi.tolist(), yi.tolist())]


def per_pair_row(family: str, machine, lang, runs: list):
    """The row of runs collected pair by pair, each an (x, y, prob, t_run,
    visited, crossings) tuple with x and y bit strings, in row order."""
    def side(k):
        return np.array([[int(b) for b in run[k]] for run in runs], dtype=np.uint8)

    prob, t_run, visited, crossings = (np.array([run[k] for run in runs]) for k in range(2, 6))
    member = np.array([bool(lang.value(run[0], run[1])) for run in runs])
    return _row(family, machine, side(0), side(1), member, prob, t_run, visited, crossings)


def row_fields(row) -> tuple:
    """Every field of a sweep row but its wall time, worst inputs included."""
    return astuple(row)[:8], row.worst_member, row.worst_nonmember
