"""The per-pair reference that sweep-row tests compare with: runs collected
one pair at a time, made into a row by the function every sweep row goes
through (harness._row), and the eq-pfa fast evaluator's view of one pair."""

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


def word(s: str) -> np.ndarray:
    """A bit string as a one-row bit matrix."""
    return np.array([[ch == "1" for ch in s]], dtype=np.uint8)


def pfa_census(fast, x: str, y: str) -> int:
    """The census an eq-pfa fast evaluator (harness._EqPfaFast) gives the pair."""
    return int(fast.shared + fast.x_census(word(x))[0] + fast.y_census(word(y))[0][0])


def pfa_prob(fast, x: str, y: str) -> float:
    """The acceptance probability an eq-pfa fast evaluator gives the pair."""
    same = fast.residues(word(x)) == fast.y_census(word(y))[1]
    return float(np.count_nonzero(same)) / fast.count
