"""The eq-dfa sweep rows: exhaustive rows from the sweep machine's closed
form, sampled rows through run_dfa, checked against the per-run path:
run_dfa, its hand-offs and the row function."""

import hashlib
import itertools
import random
from collections import Counter
from dataclasses import astuple, replace

import numpy as np
import pytest

from twoway.automata import DEFAULT_CUTOFF, dfa_from_table, run_dfa
from twoway.boolfn import eq_language
from twoway.commlab import machine_space
from twoway.errors import InputError, NonHaltingError, SpecError
from twoway.handcrafted import build_eq_dfa
from twoway import harness
from twoway.harness import (
    EXHAUSTIVE_LIMIT,
    SweepRow,
    _dfa_runs,
    _eq_dfa_runs,
    _pair_bits,
    _regions,
    _row,
    certificate_check,
    sweep_ts,
    write_rows,
)
from per_pair import per_pair_row, row_fields, row_pairs

RUN_ERRORS = (SpecError, NonHaltingError, InputError)


def scalar_lane(machine, payload, regions, cutoff=DEFAULT_CUTOFF):
    """(accepted bit, steps, visited, crossings) of the per-run path, or the
    exception it raises."""
    try:
        trace = run_dfa(machine, payload, cutoff, regions)
    except RUN_ERRORS as exc:
        return exc
    return trace.accepted_bit, trace.steps, trace.visited, len(trace.handoffs)


# --- sweep rows ------------------------------------------------------------------


def per_run(n, samples=12):
    """The eq-dfa row's runs on the per-run path, pair by pair: (x, y,
    accepted bit, steps, visited, crossings) with run_dfa on the row's
    regions."""
    machine = build_eq_dfa(n)
    runs = []
    for x, y in row_pairs(eq_language(n), n, samples):
        trace = run_dfa(machine, x + "#" * n + y, regions=_regions(n))
        runs.append((x, y, trace.accepted_bit, trace.steps, trace.visited,
                     len(trace.handoffs)))
    return runs


def reference_row(n, runs=None):
    """The eq-dfa row as the per-run path builds it, pair by pair."""
    runs = [(x, y, float(a), *rest) for x, y, a, *rest in runs or per_run(n)]
    return per_pair_row("eq-dfa", build_eq_dfa(n), eq_language(n), runs)


EXHAUSTIVE_NS = [n for n in range(1, 17) if 4 ** n <= EXHAUSTIVE_LIMIT]


# n=8's 65,536 run_dfa calls take about 2 s
@pytest.mark.parametrize("n", [pytest.param(n, marks=pytest.mark.slow) if 4 ** n > 1 << 14 else n
                               for n in EXHAUSTIVE_NS])
def test_eq_dfa_rows_equal_the_per_run_reference(n):
    # every pair of every exhaustive size: the closed form's (accepted,
    # steps, census, crossings) equal run_dfa's, and so does the row
    runs = per_run(n)
    xs, ys, xi, yi = _pair_bits(eq_language(n), n, 12, 0)
    closed = np.column_stack(_eq_dfa_runs(xs[xi], ys[yi]))
    assert closed.tolist() == [list(run[2:]) for run in runs]
    row, = sweep_ts("eq-dfa", [n])
    assert row_fields(row) == row_fields(reference_row(n, runs))
    assert row.t_max == 3 * n + 2


# written by the per-run evaluator, one run_dfa per pair
EQ_DFA_CSV = """\
family,n,T,S_declared,S_visited,TS,member_err,nonmember_err
eq-dfa,1,5,3.169925,2,15.849625,0,0
eq-dfa,2,8,4.64385619,2.80735492,37.1508495,0,0
eq-dfa,3,11,6.02236781,3.32192809,66.2460459,0,0
eq-dfa,4,14,7.33091688,3.70043972,102.632836,0,0
eq-dfa,5,17,8.58871464,4,146.008149,0,0
eq-dfa,6,20,9.80896417,4.24792751,196.179283,0,0
eq-dfa,7,23,11.0007043,4.45943162,253.016198,0,0
eq-dfa,8,26,12.1702381,4.64385619,316.426189,0,0
"""


def test_eq_dfa_csv_is_byte_stable(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(sweep_ts("eq-dfa", range(1, 9)), path)
    assert path.read_bytes() == EQ_DFA_CSV.replace("\n", "\r\n").encode()


def test_eq_dfa_rows_are_pinned(tmp_path):
    # exhaustive rows up to n=8, sampled rows at 64 and 256 (run_dfa per
    # pair): the sha256 prefixes of the rows' fields and of their CSV bytes
    rows = sweep_ts("eq-dfa", [1, 2, 3, 4, 5, 6, 8, 64, 256])
    fields = [(astuple(r)[:8], r.worst_member, r.worst_nonmember) for r in rows]
    assert hashlib.sha256(repr(fields).encode()).hexdigest()[:16] == "6503d9205761d297"
    write_rows(rows, tmp_path / "rows.csv")
    assert hashlib.sha256((tmp_path / "rows.csv").read_bytes()).hexdigest()[:16] == \
        "ea07f8492687b92a"


def test_sampled_eq_dfa_rows_equal_the_per_run_reference():
    n = 9                                   # 4^9 pairs: sampled
    row, = sweep_ts("eq-dfa", [n])
    assert row_fields(row) == row_fields(reference_row(n))


def test_exhaustive_rows_run_no_machine_and_sampled_rows_run_per_pair(monkeypatch):
    calls = Counter()

    def counted(*args, **kwargs):
        calls["run_dfa"] += 1
        return run_dfa(*args, **kwargs)

    monkeypatch.setattr(harness, "run_dfa", counted)
    sweep_ts("eq-dfa", [4])
    assert calls["run_dfa"] == 0
    sweep_ts("eq-dfa", [9], samples_per_n=3)
    assert calls["run_dfa"] == 6


# --- error precedence ----------------------------------------------------------

N = 3
REGIONS = ((0, 5), (6, 9))     # position 10 ($) lies outside both
CUTOFF = 30


def failing_dfa():
    """Reads x, then at the first # acts by x read as an integer:
    0 accept, 1 walk to $ (outside both regions), 2 undefined transition,
    3 illegal move, 4 fall off the left end, 5 repeat a configuration,
    6 run past CUTOFF, 7 bounce across the region boundary (certificate)."""
    table = {(("r", ()), "¢"): (("r", ()), 1)}
    for k in range(N):
        for prefix in itertools.product("01", repeat=k):
            for b in "01":
                nxt = prefix + (b,)
                target = ("r", nxt) if k + 1 < N else ("m", int("".join(nxt), 2))
                table[(("r", prefix), b)] = (target, 1)
    table[(("m", 0), "#")] = ("acc", 0)
    table[(("m", 1), "#")] = (("m", 1), 1)
    for sym in "01":
        table[(("m", 1), sym)] = (("m", 1), 1)
    table[(("m", 1), "$")] = ("acc", 0)
    table[(("m", 3), "#")] = ("acc", 2)
    table[(("m", 4), "#")] = (("m", 4), -1)
    for sym in "01¢":
        table[(("m", 4), sym)] = (("m", 4), -1)
    table[(("m", 5), "#")] = (("m", 5), 0)
    table[(("m", 6), "#")] = (("c", 0), 0)
    for j in range(40):
        table[(("c", j), "#")] = (("c", j + 1), 0)
    table[(("c", 40), "#")] = ("acc", 0)
    table[(("m", 7), "#")] = (("b", 0), 1)
    for j in range(5):                      # head 5 -> 6 -> 5 ... on the # block
        table[(("b", j), "#")] = (("b", j + 1), 1 if j % 2 == 0 else -1)
    table[(("b", 5), "#")] = ("rej", 0)
    return dfa_from_table("failing", table, ("r", ()), {"acc"}, {"rej"})


def mode_pair(mode: int, y: str = "000"):
    return format(mode, f"0{N}b"), y


def per_pair_error(machine, pairs, cutoff=CUTOFF):
    """The per-run path's row, each run's certificate checked as it ends, or
    the first error it raises."""
    runs = []
    for x, y in pairs:
        try:
            trace = run_dfa(machine, x + "#" * N + y, cutoff, REGIONS)
            certificate_check(machine_space(machine), trace.steps, len(trace.handoffs), N)
        except RUN_ERRORS as exc:
            return exc
        runs.append((x, y, float(trace.accepted_bit), trace.steps, trace.visited,
                     len(trace.handoffs)))
    return per_pair_row("eq-dfa", machine, eq_language(N), runs)


def pair_bits(pairs):
    return (np.array([[int(b) for b in x] for x, _ in pairs], dtype=np.uint8),
            np.array([[int(b) for b in y] for _, y in pairs], dtype=np.uint8))


def batch_error(machine, pairs, cutoff=CUTOFF):
    try:
        return _row("eq-dfa", *_dfa_runs(machine, *pair_bits(pairs), REGIONS, cutoff))
    except RUN_ERRORS as exc:
        return exc


@pytest.mark.parametrize("mode,message", [
    (1, "head position 10 lies outside both regions"),
    (2, "undefined transition"),
    (3, "illegal head move 2 on step 5"),
    (4, "head moved left of the left end marker"),
    (5, "configuration repeats"),
    (6, "step cutoff 30 exceeded"),
    (7, "certificate violated: 5 crossings * n=3 exceeds T=11"),
])
def test_each_failure_mode_raises_its_own_error(mode, message):
    machine = failing_dfa()
    want = per_pair_error(machine, [mode_pair(mode)])
    assert isinstance(want, Exception) and message in str(want)
    got = batch_error(machine, [mode_pair(mode)])
    assert (type(got), str(got)) == (type(want), str(want))


def test_batch_raises_the_first_per_pair_error():
    machine = failing_dfa()
    rng = random.Random(7)
    orders = [list(p) for p in itertools.permutations(range(1, 8), 2)]
    orders += [rng.sample(range(1, 8), 7) for _ in range(20)]
    for order in orders:
        pairs = [mode_pair(0, "101"), mode_pair(0)]
        for mode in order:
            pairs += [mode_pair(mode), mode_pair(0, "011")]
        want = per_pair_error(machine, pairs)
        got = batch_error(machine, pairs)
        assert (type(got), str(got)) == (type(want), str(want)), order


def test_batch_without_failures_equals_the_per_pair_accumulator():
    machine = failing_dfa()
    pairs = [mode_pair(0, y) for y in ("000", "111", "001")] + [mode_pair(0, "000")]
    want, got = per_pair_error(machine, pairs), batch_error(machine, pairs)
    assert isinstance(got, SweepRow) and row_fields(got) == row_fields(want)
    assert got.worst_nonmember == "000|111" and got.nonmember_err == 1.0
    assert got.worst_member == ""
    assert all(len(a) == 4 for a in _dfa_runs(machine, *pair_bits(pairs), REGIONS, CUTOFF)[3:])


def test_a_transcript_bit_violation_is_found_on_the_per_run_path():
    # a scripted walk across the region boundary, back and across again:
    # 3 crossings * n=3 <= T=9, but with S = log2(5) the transcript takes
    # 3*3+1 = 10 bits > S*floor(9/3)+1
    moves = [1] * 6 + [-1, 1, 0]
    table = {(j, sym): (j + 1 if j + 1 < len(moves) else "acc", mv)
             for j, mv in enumerate(moves) for sym in "¢01#$"}
    script = dfa_from_table("script", table, 0, {"acc"}, set())
    machine = replace(script, states=replace(script.states, declared_bound=5))
    pairs = [mode_pair(0), mode_pair(1, "110")]
    assert scalar_lane(machine, "0" * 3 * N, REGIONS, CUTOFF) == (1, 9, 9, 3)
    want, got = per_pair_error(machine, pairs), batch_error(machine, pairs)
    assert "10 transcript bits exceed" in str(want)
    assert (type(got), str(got)) == (type(want), str(want))
