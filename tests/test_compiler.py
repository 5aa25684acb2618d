"""Compiled machines against the query algorithms they came from.

The two run paths (generic step-level runner, block fast path) must agree
exactly; the machine's acceptance probability must match the algorithm's
bit for bit, because every lifted operation applies the same float
arithmetic blockwise, zero-amplitude blocks only ever add exact zeros, and
a lifted partition group is summed block by block. The fast path runs the
algorithm's own register, which is the lifted register's cache block 0.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest

import twoway.qquery
from twoway.automata import qcfa_exact, qcfa_sample
from twoway.boolfn import HASH, and_gadget, ip_gadget
from twoway.compiler import (
    CompiledRuns,
    compile_query_to_qcfa,
    run_compiled,
    run_compiled_lanes,
    verify_segment_equivalence,
)
from twoway.errors import InputError, SpecError
from twoway.ops import (
    BasisSwapOp,
    CacheFlipOp,
    CompleteMeasurement,
    DiffusionOp,
    GadgetFlipOp,
    IdentityOp,
    IndexPairHOp,
    Measurement,
    PrepReflectOp,
    RegisterLayout,
)
from twoway.qquery import (
    ACCEPT,
    KIND_CONTINUE,
    REJECT,
    Decision,
    QueryAlgorithm,
    Segment,
    exact_parity,
    grover_or,
    per_outcome,
    run_query_alg,
    run_query_alg_lanes,
)
from twoway.serialize import algorithm_to_json


def payload(x, y):
    return x + HASH * len(x) + y


def gadget_word(x, y, gadget, m):
    p = len(x) // m
    return "".join(
        str(gadget(x[i * m:(i + 1) * m], y[i * m:(i + 1) * m]))
        for i in range(p)
    )


def bitstrings(n):
    return ("".join(b) for b in itertools.product("01", repeat=n))


def test_frozen_parity_run():
    rep = compile_query_to_qcfa(exact_parity(2), and_gadget(), 2)
    r = run_compiled(rep, "10", "11")
    # z = (1, 0): odd parity, accept with certainty
    assert abs(r.accept_probability - 1.0) < 1e-9
    assert r.t_max == 26
    assert r.visited == 25
    assert r.time_bounded


def test_frozen_grover_run():
    rep = compile_query_to_qcfa(grover_or(4), and_gadget(), 4)
    r = run_compiled(rep, "0001", "0001")
    alg_p = run_query_alg(grover_or(4), "0001")
    assert r.accept_probability == alg_p        # identical floats
    assert r.t_max == 103
    assert r.visited == 104
    assert r.crossings_max == 14
    assert rep.declared_states == 395


def test_declared_state_bound_formula():
    for alg, n in ((grover_or(4), 4), (exact_parity(4), 4), (grover_or(8), 8)):
        rep = compile_query_to_qcfa(alg, and_gadget(), n)
        assert rep.declared_states <= 8 * rep.t * (n + 2) + 4 * (n + 2)
        assert rep.quantum_basis_count == (1 << rep.m) * rep.algorithm.layout.dim


def test_lifted_tables_are_built_on_the_first_step_and_move_no_count():
    # compiling and a sweep row read only the algorithm's decision rows and
    # tables; the declared bound and the continue counts are the ones those
    # rows give, and a step-level run lifts each segment it enters
    cases = ((grover_or(4), 4), (exact_parity(4), 4), (grover_or(8), 8),
             (exact_parity(64), 64), (grover_or(256), 256))
    for alg, n in cases:
        rep = compile_query_to_qcfa(alg, and_gadget(), n)
        bits = np.zeros((2, n), dtype=np.uint8)
        run_compiled_lanes(rep, bits, bits)
        assert rep.lifted.cache_info().currsize == 0
        counts = [int(np.count_nonzero(cs.kind == KIND_CONTINUE)) for cs in alg.tables]
        assert [row["continue_labels"] for row in rep.phase_table[1:]] == counts
        pass_states = 5 * n + 4 + rep.p * (rep.cache_dim - 1)
        assert rep.declared_states == (3 * n + 1) + rep.t * pass_states + sum(
            2 + r for r in counts) + 2
        if n <= 8:
            # x AND y = 0: grover_or continues through every round
            qcfa_exact(rep.machine, payload("0" * n, "0" * n))
            nseg = len(alg.segments)
            assert rep.lifted.cache_info().currsize == nseg
            assert [len(rep.lifted(s).ops) for s in range(nseg)] == \
                [len(seg.unitaries) for seg in alg.segments]


def test_compiled_probability_matches_algorithm_exhaustively():
    for n in (2, 3, 4):
        alg = grover_or(n)
        rep = compile_query_to_qcfa(alg, and_gadget(), n)
        for x in bitstrings(n):
            for y in bitstrings(n):
                z = gadget_word(x, y, and_gadget(), 1)
                assert run_compiled(rep, x, y).accept_probability == \
                    run_query_alg(alg, z)


def test_fast_path_equals_generic_runner():
    cases = [(grover_or, 3, pair) for pair in (("000", "000"), ("001", "001"),
                                               ("111", "101"), ("010", "110"))]
    # every n=2 pair: the register is small enough (dim 8) for any
    # small-machine special case of the step-level runner to show
    cases += [(builder, 2, (x, y)) for builder in (grover_or, exact_parity)
              for x in bitstrings(2) for y in bitstrings(2)]
    # 24 seeded pairs on each n=4 machine the benchmark's walkers run exactly
    rng = random.Random(4)
    seeded = [(format(rng.getrandbits(4), "04b"), format(rng.getrandbits(4), "04b"))
              for _ in range(24)]
    cases += [(builder, 4, pair) for builder in (grover_or, exact_parity) for pair in seeded]
    reports = {}
    for builder, n, (x, y) in cases:
        rep = reports.get((builder, n))
        if rep is None:
            rep = reports[builder, n] = compile_query_to_qcfa(builder(n), and_gadget(), n)
        fast = run_compiled(rep, x, y)
        slow = qcfa_exact(rep.machine, payload(x, y))
        assert fast.accept_probability == slow.accept_probability, (rep.machine.name, x, y)
        assert fast.t_max == slow.t_max
        assert fast.visited == len(slow.origin_states)


def test_algorithm_runner_equals_compiled_runner_at_n16():
    # the algorithm side runs the same branch engine on its own register,
    # so even outcomes below the pruning floor are dropped alike
    alg = grover_or(16)
    rep = compile_query_to_qcfa(alg, and_gadget(), 16)
    rng = random.Random(16)
    for _ in range(100):
        x = "".join(rng.choice("01") for _ in range(16))
        y = "".join(rng.choice("01") for _ in range(16))
        z = gadget_word(x, y, and_gadget(), 1)
        assert run_query_alg(alg, z) == run_compiled(rep, x, y).accept_probability


def bit_rows(n):
    """Every (x, y) pair of side n in sweep order, as two bit matrices."""
    words = np.array([[int(b) for b in w] for w in bitstrings(n)], dtype=np.uint8)
    return np.repeat(words, len(words), axis=0), np.tile(words, (len(words), 1))


ROW_CASES = [(grover_or(n), and_gadget(), n) for n in range(2, 7)] + \
    [(exact_parity(n), and_gadget(), n) for n in (2, 4, 6)] + [(grover_or(2), ip_gadget(2), 4)]


@pytest.mark.parametrize("alg,gadget,n", ROW_CASES,
                         ids=[f"{a.name}%{g.name}@{n}" for a, g, n in ROW_CASES])
def test_row_runner_equals_per_pair_runs(monkeypatch, alg, gadget, n):
    # every lane of a row must get exactly the result it gets alone, however
    # the row is cut into lane blocks: one lane, three lanes (a ragged last
    # block), the whole row, and the default
    rep = compile_query_to_qcfa(alg, gadget, n)
    x, y = bit_rows(n)
    pairs = [run_compiled(rep, "".join(map(str, a)), "".join(map(str, b)))
             for a, b in zip(x.tolist(), y.tolist())]
    want = {f: [getattr(r, f) for r in pairs] for f in CompiledRuns._fields}
    dim = rep.algorithm.layout.dim         # the engine runs the algorithm's register
    for cells in (1, 3 * dim, len(x) * dim, twoway.qquery.LANE_CELLS):
        monkeypatch.setattr(twoway.qquery, "LANE_CELLS", cells)
        runs = run_compiled_lanes(rep, x, y)
        assert {f: a.tolist() for f, a in zip(runs._fields, runs)} == want, cells


def test_a_lone_run_has_python_scalar_fields():
    # the CLI and the sidecar print a run's fields, as Python scalars
    rep = compile_query_to_qcfa(grover_or(4), and_gadget(), 4)
    r = run_compiled(rep, "0110", "0111")
    assert type(r.accept_probability) is float
    for f in ("t_max", "t_max_accepting", "t_max_rejecting", "visited", "branch_count",
              "crossings_max"):
        assert type(getattr(r, f)) is int, f
    assert r.time_bounded is True and r.origin_states == set()
    assert type(run_query_alg(grover_or(4), "0110")) is float


def test_lost_mass_names_the_first_failing_pair(monkeypatch):
    # a pruning floor this high drops real outcomes, so some runs lose mass;
    # a row raises for its first such pair in input order, as that pair does
    # alone, and names it
    monkeypatch.setattr(twoway.qquery, "BRANCH_PRUNE", 0.2)
    n = 4
    rep = compile_query_to_qcfa(grover_or(n), and_gadget(), n)
    x, y = bit_rows(n)
    failed = []
    for a, b in zip(x.tolist(), y.tolist()):
        pair = ("".join(map(str, a)), "".join(map(str, b)))
        try:
            run_compiled(rep, *pair)
        except SpecError as exc:
            failed.append((pair, str(exc)))
    assert 0 < len(failed) < len(x)
    (fx, fy), message = failed[0]
    assert (fx, fy) != ("0" * n, "0" * n)
    assert f"{rep.machine.name} on {fx}|{fy}: terminal branch weights sum to" in message
    # the whole row in one block, and in blocks that put the pair in the second
    first = [("".join(map(str, a)), "".join(map(str, b)))
             for a, b in zip(x.tolist(), y.tolist())].index((fx, fy))
    for lanes in (len(x), first // 2 + 1):
        monkeypatch.setattr(twoway.qquery, "LANE_CELLS", lanes * rep.algorithm.layout.dim)
        with pytest.raises(SpecError) as row:
            run_compiled_lanes(rep, x, y)
        assert str(row.value) == message
    z = gadget_word(fx, fy, and_gadget(), 1)
    with pytest.raises(SpecError, match=f"grover-or:{n} on {z}: terminal branch weights"):
        run_query_alg(grover_or(n), z)


def test_each_decision_is_read_once_per_algorithm_object():
    calls = {}

    def counted(s, decide):
        def wrapper(labels):
            calls[s] = calls.get(s, 0) + 1
            return decide(labels)
        return wrapper

    alg = grover_or(4)
    alg = dataclasses.replace(alg, segments=tuple(
        dataclasses.replace(seg, decide=counted(s, seg.decide))
        for s, seg in enumerate(alg.segments)))
    rep = compile_query_to_qcfa(alg, and_gadget(), 4)
    for x, y in (("0110", "0111"), ("1111", "0000")):
        z = gadget_word(x, y, and_gadget(), 1)
        assert run_query_alg(alg, z) == run_compiled(rep, x, y).accept_probability
    algorithm_to_json(alg)
    assert calls == {s: 1 for s in range(len(alg.segments))}


def test_flip_operators_are_built_on_first_step_level_use(monkeypatch):
    built = []
    for cls in (CacheFlipOp, GadgetFlipOp):
        def counting(self, *args, _init=cls.__init__):
            built.append(type(self))
            _init(self, *args)
        monkeypatch.setattr(cls, "__init__", counting)
    n = 64
    rep = compile_query_to_qcfa(grover_or(n), and_gadget(), n)
    run_compiled(rep, "1" * n, "1" * n)
    assert built == []                     # run_compiled sweeps with the kernel
    qcfa_sample(rep.machine, payload("1" * n, "1" * n), seed=0)
    assert CacheFlipOp in built and GadgetFlipOp in built
    theta = rep.machine.theta
    for state, sym in ((("x1", 0, 0, 5), "1"), (("x2", 0, 0, 6), "1"),
                       (("y", 0, 0, 7, 0), "1")):
        assert theta(state, sym) is theta(state, sym)
    assert theta(("x1", 0, 0, 5), "1") is theta(("x2", 0, 0, 6), "1")


def test_flip_operators_keep_their_parameters_on_a_wide_gadget():
    n, m = 4, 2                            # blocks of 2 bits, cache_dim 4
    rep = compile_query_to_qcfa(exact_parity(2), ip_gadget(2), n)
    theta, p_pad, d_w = rep.machine.theta, 2, rep.algorithm.layout.work_dim
    for idx in range(n):
        want = CacheFlipOp(4, p_pad, d_w, idx // m, 1 << (m - 1 - idx % m)).describe()
        assert theta(("x1", 0, 1, idx), "1").describe() == want
        assert theta(("x2", 0, 1, idx + 1), "1").describe() == want
        assert theta(("x1", 0, 1, idx), "0") is theta(("x2", 0, 1, 0), "¢")
    for pref, bit in itertools.product(range(2), "01"):
        v = (pref << 1) | (bit == "1")
        flips = tuple(c for c in range(4) if rep.gadget.flips[c, v])
        want = GadgetFlipOp(4, p_pad, d_w, 1, flips).describe()
        assert theta(("y", 0, 1, 3, pref), bit).describe() == want


def test_grover_rounds_share_their_routing(monkeypatch):
    calls = []

    def counting(*args, _orig=twoway.qquery._transposed):
        calls.append(args)
        return _orig(*args)

    monkeypatch.setattr(twoway.qquery, "_transposed", counting)
    n = 4096
    alg = grover_or(n)
    compile_query_to_qcfa(alg, and_gadget(), n)
    assert not calls                       # the tables wait for their first use
    first, second, last = alg.tables[1], alg.tables[2], alg.tables[-1]
    assert len(calls) == 2                 # the non-last rounds and the last
    assert second.dst is first.dst and second.src is first.src
    assert second.kind is first.kind
    assert last.dst is not first.dst
    assert not np.array_equal(second.next_segment, first.next_segment)


def test_grover_rounds_share_their_lifts(monkeypatch):
    # every lifted segment reuses the one lift of each distinct operator and
    # measurement object; a reset is lifted on its first use, once per
    # distinct swap, and a row without one is the identity
    n = 64
    alg = grover_or(n)
    rep = compile_query_to_qcfa(alg, and_gadget(), n)
    built = []

    def counting(self, *args, _init=BasisSwapOp.__init__):
        built.append(args)
        _init(self, *args)
    monkeypatch.setattr(BasisSwapOp, "__init__", counting)
    first, second, last = rep.lifted(1), rep.lifted(2), rep.lifted(len(alg.segments) - 1)
    assert second.measurement is first.measurement is last.measurement
    assert second.rows is first.rows
    assert first.ops[-1] is second.ops[-1] and isinstance(first.ops[-1], IdentityOp)
    assert first.measurement.dim == rep.quantum_basis_count
    assert not built
    canon = alg.layout.flat(0, 0, 0)
    assert rep.reset(1, 4) is rep.reset(2, 4)          # answer 0 continues, swapped
    assert built == [(alg.layout.dim, 4, canon)]
    assert rep.reset(1, 4) is not rep.reset(1, 6)
    assert isinstance(rep.reset(1, alg.layout.flat(0, 1, 0)), IdentityOp)   # answer 1 accepts
    assert len(built) == 2


def test_generic_runner_time_within_declared_budget():
    rep = compile_query_to_qcfa(grover_or(3), and_gadget(), 3)
    n = 3
    for x, y in (("000", "000"), ("111", "111")):
        r = run_compiled(rep, x, y)
        assert r.t_max <= 8 * rep.t * (n + 2) + 4 * (n + 2)
        assert r.visited <= rep.declared_states


def test_wide_gadget_blocks():
    # n = 4 sides, inner-product gadget of width 2, so p = 2 blocks
    alg = grover_or(2)
    rep = compile_query_to_qcfa(alg, ip_gadget(2), 4)
    assert rep.m == 2 and rep.p == 2
    g = ip_gadget(2)
    for x in bitstrings(4):
        for y in bitstrings(4):
            z = gadget_word(x, y, g, 2)
            assert run_compiled(rep, x, y).accept_probability == \
                run_query_alg(alg, z)


def test_wide_gadget_blocks_sampled():
    # n = 8 sides, p = 4 blocks of width 2: outcome weights sum four cache
    # blocks per label
    alg = grover_or(4)
    g = ip_gadget(2)
    rep = compile_query_to_qcfa(alg, g, 8)
    assert rep.cache_dim == 4
    rng = random.Random(8)
    for _ in range(300):
        x = "".join(rng.choice("01") for _ in range(8))
        y = "".join(rng.choice("01") for _ in range(8))
        assert run_compiled(rep, x, y).accept_probability == \
            run_query_alg(alg, gadget_word(x, y, g, 2))


def test_partition_measurement_with_reordering_reset():
    # a two-segment algorithm whose first measurement is a two-group
    # partition; the "lo" reset swaps basis 0 and 3, so the lifted group
    # [0, 1, 4, 5] lands on [3, 1, 7, 5] and the runner must order it
    layout = RegisterLayout(2, 1)
    split = Measurement(layout.dim, {"lo": np.array([0, 1]), "hi": np.array([2, 3])})

    def first(label):
        reset = BasisSwapOp(layout.dim, 0, 3) if label == "lo" else None
        return Decision("continue", 1, reset)

    def second(outcome):
        return ACCEPT if layout.unpack(int(outcome))[1] else REJECT

    alg = QueryAlgorithm("toy", 2, layout, (
        Segment((PrepReflectOp(layout, 0), IdentityOp(layout.dim)), split,
                per_outcome(first)),
        Segment((IndexPairHOp(layout, 0, 1), IdentityOp(layout.dim)),
                CompleteMeasurement(layout.dim), per_outcome(second)),
    ), 1 / 3)
    rep = compile_query_to_qcfa(alg, and_gadget(), 2)
    assert rep.phase_table[1]["continue_labels"] == 2
    seen = set()
    for x in bitstrings(2):
        for y in bitstrings(2):
            fast = run_compiled(rep, x, y)
            slow = qcfa_exact(rep.machine, payload(x, y))
            want = run_query_alg(alg, gadget_word(x, y, and_gadget(), 1))
            assert fast.accept_probability == slow.accept_probability
            assert abs(fast.accept_probability - want) < 1e-12
            assert fast.t_max == slow.t_max
            assert fast.visited == len(slow.origin_states)
            seen.add(round(want, 9))
    assert len(seen) > 1


def spread_algorithm():
    """One segment on a dim-16 register, measured in a group of 11 entries
    and one of 5 spread over it: enough terms that a pairwise sum and a
    sequential one differ, and a lifted group holds other cache blocks'
    zeros behind block 0's entries."""
    layout = RegisterLayout(8, 1)
    five = np.array([1, 4, 7, 10, 13])
    spread = Measurement(layout.dim, {"wide": np.setdiff1d(np.arange(layout.dim), five),
                                      "narrow": five}, name="spread")
    unitaries = (PrepReflectOp(layout, 0), IndexPairHOp(layout, 1, 6), DiffusionOp(layout),
                 PrepReflectOp(layout, 3))
    return QueryAlgorithm("spread", 8, layout, (Segment(unitaries, spread, per_outcome(
        lambda label: ACCEPT if label == "wide" else REJECT)),), 1 / 3)


SPREAD = spread_algorithm()


@pytest.mark.parametrize("gadget", [and_gadget(), ip_gadget(2)], ids=lambda g: g.name)
def test_spread_partition_sums_are_the_algorithms_own(gadget):
    # the step-level runner sums the lifted group per cache block, and every
    # lane of a row sums its groups as it does alone
    m = gadget.width
    n = SPREAD.arity * m
    rep = compile_query_to_qcfa(SPREAD, gadget, n)
    rng = random.Random(40)
    pairs = [tuple("".join(rng.choice("01") for _ in range(n)) for _ in "xy")
             for _ in range(40)]
    lone = [run_compiled(rep, x, y) for x, y in pairs]
    for (x, y), r in zip(pairs, lone):
        want = run_query_alg(SPREAD, gadget_word(x, y, gadget, m))
        assert r.accept_probability == qcfa_exact(rep.machine, payload(x, y)).accept_probability \
            == want, (x, y)
    x, y = (np.array([[int(b) for b in side] for side in sides], dtype=np.uint8)
            for sides in zip(*pairs))
    runs = run_compiled_lanes(rep, x, y)
    assert {f: a.tolist() for f, a in zip(runs._fields, runs)} == \
        {f: [getattr(r, f) for r in lone] for f in CompiledRuns._fields}


def test_spread_partition_word_row_equals_lone_words():
    rng = random.Random(41)
    words = np.array([[rng.getrandbits(1) for _ in range(SPREAD.arity)] for _ in range(40)],
                     dtype=np.uint8)
    assert run_query_alg_lanes(SPREAD, words) == \
        [run_query_alg(SPREAD, "".join(map(str, w))) for w in words.tolist()]


def test_paths_merged_from_different_schedules_keep_exact_times():
    # segment 0 forks: "lo" runs segments 1 and 3 (no oracle calls, three
    # resets in all), "hi" runs segment 2 (one call, two resets). Both reset
    # to the same basis state, so the branches merge before segment 4 with
    # histories (2 calls, 3 resets) and (3 calls, 2 resets); the longest
    # run is the larger of the two paths, not their componentwise maximum
    layout = RegisterLayout(2, 1)
    dim = layout.dim
    idle = IdentityOp(dim)
    mix = IndexPairHOp(layout, 0, 1)
    basis = CompleteMeasurement(dim)
    split = Measurement(dim, {"lo": np.array([0, 1]), "hi": np.array([2, 3])})

    def to(seg):
        return per_outcome(lambda o: Decision(
            "continue", seg, BasisSwapOp(dim, int(o), 0) if int(o) else None))

    last = per_outcome(
        lambda outcome: ACCEPT if layout.unpack(int(outcome))[1] else REJECT)

    alg = QueryAlgorithm("fork", 2, layout, (
        Segment((mix, idle), split,
                per_outcome(lambda label: Decision("continue", 1 if label == "lo" else 2))),
        Segment((idle,), basis, to(3)),
        Segment((idle, idle), basis, to(4)),
        Segment((idle,), basis, to(4)),
        Segment((mix, idle), basis, last),
    ), 1 / 3)
    rep = compile_query_to_qcfa(alg, and_gadget(), 2)
    for x in bitstrings(2):
        for y in bitstrings(2):
            fast = run_compiled(rep, x, y)
            slow = qcfa_exact(rep.machine, payload(x, y))
            assert fast.accept_probability == slow.accept_probability
            assert fast.accept_probability == \
                run_query_alg(alg, gadget_word(x, y, and_gadget(), 1))
            assert (fast.t_max, fast.t_max_accepting, fast.t_max_rejecting) == \
                (slow.t_max, slow.t_max_accepting, slow.t_max_rejecting)
            assert fast.visited == len(slow.origin_states)


@pytest.mark.parametrize("x,y", [
    (np.zeros((1, 3), np.uint8), np.zeros((1, 4), np.uint8)),
    (np.zeros((2, 4), np.uint8), np.zeros((1, 4), np.uint8)),
    (np.array([[0, 2, 0, 0]], np.uint8), np.zeros((1, 4), np.uint8)),
    (np.zeros((1, 4), np.uint8), np.array([[0, 0, 3, 0]], np.uint8)),
    (np.array([[0, -1, 0, 0]]), np.array([[0, 1, 0, 0]])),
    (np.zeros((1, 4), np.uint8), np.array([[0, 0, -1, 0]], np.int8)),
    (np.array([[0, 0.5, 0, 0]]), np.zeros((1, 4))),
    (np.zeros((1, 4)), np.zeros((1, 4))),
    (np.zeros(4, np.uint8), np.zeros(4, np.uint8)),
])
def test_row_runner_refuses_anything_but_bit_matrices(x, y):
    rep = compile_query_to_qcfa(grover_or(4), and_gadget(), 4)
    with pytest.raises(InputError):
        run_compiled_lanes(rep, x, y)


def test_side_length_must_factor():
    with pytest.raises(InputError):
        compile_query_to_qcfa(grover_or(2), ip_gadget(2), 5)


def test_malformed_payloads_reject_quickly():
    rep = compile_query_to_qcfa(exact_parity(2), and_gadget(), 2)
    for w in ("10#11", "1011", "10###1", ""):
        r = qcfa_exact(rep.machine, w)
        assert r.accept_probability == 0
        assert r.t_max <= 3 * 2 + 2


def test_segment_equivalence_zero_through_all_calls():
    alg = grover_or(3)
    rep = compile_query_to_qcfa(alg, and_gadget(), 3)
    for x, y in (("001", "011"), ("111", "111"), ("000", "000")):
        for j in range(alg.total_calls + 1):
            dev = verify_segment_equivalence(alg, rep, x, y, j)
            assert dev <= 1e-9


def test_segment_equivalence_rejects_bad_call_index():
    alg = grover_or(2)
    rep = compile_query_to_qcfa(alg, and_gadget(), 2)
    with pytest.raises(InputError):
        verify_segment_equivalence(alg, rep, "01", "01", alg.total_calls + 1)
    with pytest.raises(InputError):
        verify_segment_equivalence(alg, rep, "01", "01", -1)


def test_report_phase_table_accounts_for_all_segments():
    alg = grover_or(4)
    rep = compile_query_to_qcfa(alg, and_gadget(), 4)
    seg_rows = [row for row in rep.phase_table if "segment" in row]
    assert len(seg_rows) == len(alg.segments)
    assert sum(row["calls"] for row in seg_rows) == alg.total_calls


def test_machine_source_records_the_construction():
    rep = compile_query_to_qcfa(exact_parity(2), and_gadget(), 2)
    src = rep.machine.source
    assert src["generator"] == "compiled"
    assert src["algorithm"] == "exact-parity:2"
    assert src["gadget"] == "and1"
    assert src["n"] == 2


def fit_size_cases():
    """Compiled grover_or and exact_parity (AND gadget) at the side lengths
    criterion 09 fits, n=256 marked slow."""
    for builder in (grover_or, exact_parity):
        for n in (16, 64, 256):
            marks = pytest.mark.slow if n == 256 else ()
            yield pytest.param(builder, n, marks=marks, id=f"{builder.__name__}-{n}")


@pytest.mark.parametrize("builder,n", fit_size_cases())
def test_closed_forms_match_the_stepped_machine_at_fit_sizes(builder, n):
    # run_compiled rebuilds time and census from closed forms over each
    # branch's oracle calls and resets (its Pareto-maximal histories);
    # qcfa_exact steps the machine. Three seeded pairs and one non-member:
    # x AND y is all zero, which both OR and parity reject.
    #
    # The accept probabilities agree only up to pruning: qcfa_exact merges
    # branches that become bitwise equal mid-segment, which the engine
    # keeps apart until the next segment, so its outcomes can fall under
    # the 1e-12 weight floor where qcfa_exact's merged ones do not (at
    # grover_or n=256 the gap reaches 7.6e-11)
    rng = random.Random(n)
    pairs = [("".join(rng.choice("01") for _ in range(n)),
              "".join(rng.choice("01") for _ in range(n))) for _ in range(3)]
    pairs.append(("1" * n, "0" * n))
    rep = compile_query_to_qcfa(builder(n), and_gadget(), n)
    for x, y in pairs:
        fast = run_compiled(rep, x, y)
        slow = qcfa_exact(rep.machine, payload(x, y))
        assert (fast.t_max, fast.t_max_accepting, fast.t_max_rejecting) == \
            (slow.t_max, slow.t_max_accepting, slow.t_max_rejecting), (x, y)
        assert fast.visited == len(slow.origin_states), (x, y)
        assert abs(fast.accept_probability - slow.accept_probability) <= 1e-9, (x, y)
    assert fast.accept_probability == slow.accept_probability == 0
