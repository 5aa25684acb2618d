"""The lockstep 2DFA walker and the eq-dfa sweep rows it evaluates, checked
against the per-run path: run_dfa, its hand-offs and the row function."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

import twoway
from twoway import lockstep
from twoway.automata import DEFAULT_CUTOFF, dfa_from_table, run_dfa
from twoway.boolfn import eq_language
from twoway.commlab import machine_space
from twoway.errors import InputError, NonHaltingError, SpecError
from twoway.handcrafted import build_eq_dfa
from twoway.lockstep import run_dfa_lanes
from twoway import harness
from twoway.harness import (
    SweepRow,
    _dfa_runs,
    _regions,
    _row,
    certificate_check,
    sweep_ts,
    write_rows,
)
from per_pair import per_pair_row, row_fields, row_pairs

RUN_ERRORS = (SpecError, NonHaltingError, InputError)


def codes(payload: str) -> list:
    return ["01#".index(ch) for ch in payload]


def scalar_lane(machine, payload, regions, cutoff=DEFAULT_CUTOFF):
    """(accepted bit, steps, visited, crossings) of the per-run path, or the
    exception it raises."""
    try:
        trace = run_dfa(machine, payload, cutoff, regions)
    except RUN_ERRORS as exc:
        return exc
    return trace.accepted_bit, trace.steps, trace.visited, len(trace.handoffs)


def lane(runs, i):
    return (int(runs.accepted[i]), int(runs.steps[i]), int(runs.visited[i]),
            int(runs.crossings[i]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_walker_equals_run_dfa_on_every_eq_dfa_pair(n):
    machine = build_eq_dfa(n)
    words = [x + "#" * n + y for x, y in row_pairs(eq_language(n), n, 0)]
    runs = run_dfa_lanes(machine, np.array([codes(w) for w in words]), _regions(n))
    assert not runs.replay.any()
    for i, w in enumerate(words):
        assert lane(runs, i) == scalar_lane(machine, w, _regions(n))


def random_table_dfa(seed: int, circular: bool):
    """A seeded table 2DFA that moves both ways. Its states carry a step
    count, so a run halts within 30 steps unless it fails, most runs within
    one tape length: a few transitions are missing, stay put in the same
    state (a repeated configuration) or move off the tape."""
    rng = random.Random(seed)
    table = {}
    for q, k, sym in itertools.product(range(4), range(30), "¢01#$"):
        r = rng.random()
        if r < 0.01:
            continue
        if r < 0.02:
            table[((q, k), sym)] = ((q, k), 0)
            continue
        target = rng.choice(("acc", "rej")) if r < 0.15 or k == 29 else (rng.randrange(4), k + 1)
        move = rng.choice((1, 1, 0, -1, -1))
        if sym == "¢" and move == -1 and rng.random() < 0.9:
            move = 1
        if sym == "$" and move == 1 and not circular and rng.random() < 0.9:
            move = -1
        table[((q, k), sym)] = (target, move)
    return dfa_from_table(f"random:{seed}", table, (0, 0), {"acc"}, {"rej"}, circular)


@pytest.mark.parametrize("seed,circular", [(4, False), (6, False), (4, True), (10, True)])
def test_walker_equals_run_dfa_on_random_table_dfas(seed, circular):
    n = 3
    machine = random_table_dfa(seed, circular)
    rng = random.Random(seed)
    words = ["".join(rng.choice("01#") for _ in range(3 * n)) for _ in range(300)]
    runs = run_dfa_lanes(machine, np.array([codes(w) for w in words]), _regions(n))
    budget = 3 * n + 2                      # one tape length
    outcomes = Counter()
    for i, w in enumerate(words):
        want = scalar_lane(machine, w, _regions(n))
        if isinstance(want, Exception):
            assert runs.replay[i], w
            outcomes["failed"] += 1
        elif runs.replay[i]:
            assert want[1] > budget, w      # handed back only past the budget
            outcomes["long"] += 1
        else:
            assert lane(runs, i) == want, w
            outcomes["finished"] += 1
    assert outcomes["finished"] >= 100 and outcomes["failed"] and outcomes["long"]


def test_walker_wraps_circular_tapes_and_counts_their_crossings():
    # sweep right on a circular tape; the step off $ wraps to ¢ and accepts
    table = {("s", sym): ("s", 1) for sym in "¢01#"}
    table[("s", "$")] = ("acc", 1)
    machine = dfa_from_table("lap", table, "s", {"acc"}, set(), circular=True)
    words = ["01#10", "#####", "11111"]
    regions = ((0, 3), (2, 6))
    runs = run_dfa_lanes(machine, np.array([codes(w) for w in words]), regions)
    assert not runs.replay.any()
    for i, w in enumerate(words):
        assert lane(runs, i) == scalar_lane(machine, w, regions)
    assert runs.crossings[0] == 2 and runs.steps[0] == 7


def test_walker_fills_each_transition_and_halting_code_once():
    n = 4
    base = build_eq_dfa(n)
    steps, halts = Counter(), Counter()

    def step(s, sym):
        steps[(s, sym)] += 1
        return base.step(s, sym)

    def halting(s):
        halts[s] += 1
        return base.states.halting(s)

    machine = replace(base, step=step, states=replace(base.states, halting=halting))
    words = [x + "#" * n + y for x, y in row_pairs(eq_language(n), n, 0)]
    run_dfa_lanes(machine, np.array([codes(w) for w in words]), _regions(n))
    assert max(steps.values()) == 1 and max(halts.values()) == 1
    assert len(steps) < sum(3 * n + 2 for _ in words) // 10


def test_an_exhaustive_eq_dfa_sweep_leaves_numpy_ma_unimported():
    # np.unique would import numpy.ma on its first call, which costs a fresh
    # process milliseconds and about half a megabyte; neither an exhaustive
    # nor a sampled row of any family, nor any runner, may import it
    src = str(Path(twoway.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = """if True:
        import sys
        from twoway.automata import pfa_exact, qcfa_exact, qcfa_sample, run_pfa_sample
        from twoway.boolfn import and_gadget
        from twoway.compiler import compile_query_to_qcfa, run_compiled
        from twoway.handcrafted import build_eq_pfa
        from twoway.harness import sweep_ts
        from twoway.qquery import grover_or
        sweep_ts('eq-dfa', [4])
        for family, ns in (('eq-dfa', [9]), ('eq-pfa', [4, 9]), ('grover-ints', [4, 9]),
                           ('exact-parity-lifted', [4, 10])):
            sweep_ts(family, ns, samples_per_n=2)
        pfa = build_eq_pfa(2)
        pfa_exact(pfa, '01##01')
        run_pfa_sample(pfa, '01##01')
        rep = compile_query_to_qcfa(grover_or(2), and_gadget(), 2)
        qcfa_exact(rep.machine, '01##01')
        qcfa_sample(rep.machine, '01##01')
        run_compiled(rep, '01', '01')
        print('numpy.ma' in sys.modules)
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_walker_blocks_do_not_change_results(monkeypatch):
    n = 3
    machine = random_table_dfa(5, False)
    rng = random.Random(5)
    payloads = np.array([[rng.randrange(3) for _ in range(3 * n)] for _ in range(100)])
    whole = run_dfa_lanes(machine, payloads, _regions(n))
    monkeypatch.setattr(lockstep, "LANE_CELLS", 7 * (3 * n + 2))   # blocks of 7 lanes
    blocked = run_dfa_lanes(machine, payloads, _regions(n))
    for name in ("accepted", "steps", "visited", "crossings", "replay"):
        assert np.array_equal(getattr(whole, name), getattr(blocked, name)), name


def test_walker_edge_cases():
    machine = build_eq_dfa(2)
    # a machine whose initial state halts takes no step
    halted = replace(machine, states=replace(machine.states, initial="acc"))
    runs = run_dfa_lanes(halted, np.zeros((3, 6), int), _regions(2))
    assert runs.accepted.tolist() == [1, 1, 1] and not runs.steps.any()
    assert not runs.visited.any() and not runs.replay.any()
    # no lanes at all
    assert run_dfa_lanes(machine, np.zeros((0, 6), int), _regions(2)).steps.size == 0
    # a cutoff below the run length hands every lane back
    assert run_dfa_lanes(machine, np.zeros((2, 6), int), _regions(2), cutoff=3).replay.all()
    with pytest.raises(InputError):
        run_dfa_lanes(machine, np.full((1, 6), 3), _regions(2))
    with pytest.raises(InputError):
        run_dfa_lanes(machine, np.zeros(6, int), _regions(2))
    with pytest.raises(InputError):
        run_dfa_lanes(machine, np.zeros((1, 6)), _regions(2))


# --- sweep rows ------------------------------------------------------------------


def reference_row(n):
    """The eq-dfa row as the per-run path builds it, pair by pair."""
    machine = build_eq_dfa(n)
    lang = eq_language(n)
    runs = []
    for x, y in row_pairs(lang, n, 12):
        trace = run_dfa(machine, x + "#" * n + y, regions=_regions(n))
        runs.append((x, y, float(trace.accepted_bit), trace.steps, trace.visited,
                     len(trace.handoffs)))
    return per_pair_row("eq-dfa", machine, lang, runs)


def test_eq_dfa_rows_equal_the_per_run_reference():
    ns = [1, 2, 3, 4, 5, 6]
    for row, n in zip(sweep_ts("eq-dfa", ns), ns):
        assert row_fields(row) == row_fields(reference_row(n))
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


def test_exhaustive_rows_walk_in_lockstep_and_sampled_rows_run_per_pair(monkeypatch):
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


def batch_error(machine, pairs, lockstep=True, cutoff=CUTOFF):
    try:
        return _row("eq-dfa", *_dfa_runs(machine, *pair_bits(pairs), REGIONS, cutoff, lockstep))
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
    for lockstep_walk in (True, False):
        got = batch_error(machine, [mode_pair(mode)], lockstep_walk)
        assert (type(got), str(got)) == (type(want), str(want))


@pytest.mark.parametrize("blocks,lockstep_walk", [(False, True), (True, True), (False, False)])
def test_batch_raises_the_first_per_pair_error(monkeypatch, blocks, lockstep_walk):
    if blocks:
        monkeypatch.setattr(lockstep, "LANE_CELLS", 3 * (3 * N + 2))   # 3 lanes a block
    machine = failing_dfa()
    rng = random.Random(7)
    orders = [list(p) for p in itertools.permutations(range(1, 8), 2)]
    orders += [rng.sample(range(1, 8), 7) for _ in range(20)]
    for order in orders:
        pairs = [mode_pair(0, "101"), mode_pair(0)]
        for mode in order:
            pairs += [mode_pair(mode), mode_pair(0, "011")]
        want = per_pair_error(machine, pairs)
        got = batch_error(machine, pairs, lockstep_walk)
        assert (type(got), str(got)) == (type(want), str(want)), order


def test_batch_without_failures_equals_the_per_pair_accumulator():
    machine = failing_dfa()
    pairs = [mode_pair(0, y) for y in ("000", "111", "001")] + [mode_pair(0, "000")]
    want, got = per_pair_error(machine, pairs), batch_error(machine, pairs)
    assert isinstance(got, SweepRow) and row_fields(got) == row_fields(want)
    assert row_fields(batch_error(machine, pairs, lockstep=False)) == row_fields(want)
    assert got.worst_nonmember == "000|111" and got.nonmember_err == 1.0
    assert got.worst_member == ""
    assert all(len(a) == 4 for a in _dfa_runs(machine, *pair_bits(pairs), REGIONS, CUTOFF)[3:])


def test_a_lane_handed_back_sends_the_whole_row_through_run_dfa(monkeypatch):
    # mode 6 accepts in 46 steps at cutoff 100, but the lockstep walk stops
    # at the tape length (11 cells) and hands the lane back
    machine = failing_dfa()
    pairs = [mode_pair(0, "101"), mode_pair(6), mode_pair(0)]
    payloads = np.array([codes(x + "#" * N + y) for x, y in pairs])
    assert run_dfa_lanes(machine, payloads, REGIONS, 100).replay.tolist() == [False, True, False]
    assert scalar_lane(machine, "110###000", REGIONS, 100)[:2] == (1, 46)
    want = per_pair_error(machine, pairs, cutoff=100)
    calls = Counter()

    def counted(*args, **kwargs):
        calls["run_dfa"] += 1
        return run_dfa(*args, **kwargs)

    monkeypatch.setattr(harness, "run_dfa", counted)
    got = batch_error(machine, pairs, cutoff=100)
    assert calls["run_dfa"] == 3
    assert isinstance(got, SweepRow) and row_fields(got) == row_fields(want)


def test_a_transcript_bit_violation_is_found_after_a_lockstep_walk():
    # a scripted walk across the region boundary, back and across again:
    # 3 crossings * n=3 <= T=9, but with S = log2(5) the transcript takes
    # 3*3+1 = 10 bits > S*floor(9/3)+1
    moves = [1] * 6 + [-1, 1, 0]
    table = {(j, sym): (j + 1 if j + 1 < len(moves) else "acc", mv)
             for j, mv in enumerate(moves) for sym in "¢01#$"}
    script = dfa_from_table("script", table, 0, {"acc"}, set())
    machine = replace(script, states=replace(script.states, declared_bound=5))
    pairs = [mode_pair(0), mode_pair(1, "110")]
    runs = run_dfa_lanes(machine, np.zeros((1, 3 * N), int), REGIONS, CUTOFF)
    assert not runs.replay.any() and lane(runs, 0) == (1, 9, 9, 3)
    want, got = per_pair_error(machine, pairs), batch_error(machine, pairs)
    assert "10 transcript bits exceed" in str(want)
    assert (type(got), str(got)) == (type(want), str(want))
