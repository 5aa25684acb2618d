"""Compiled machines against the query algorithms they came from.

The two run paths (generic step-level runner, block fast path) must agree
exactly; the machine's acceptance probability must match the algorithm's
bit for bit, because every lifted operation applies the same float
arithmetic blockwise and zero-amplitude blocks only ever add exact zeros.
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
    compile_query_to_qcfa,
    run_compiled,
    verify_segment_equivalence,
)
from twoway.errors import InputError
from twoway.ops import (
    BasisSwapOp,
    CacheFlipOp,
    CompleteMeasurement,
    GadgetFlipOp,
    IdentityOp,
    IndexPairHOp,
    Measurement,
    PrepReflectOp,
    RegisterLayout,
)
from twoway.qquery import (
    ACCEPT,
    REJECT,
    Decision,
    QueryAlgorithm,
    Segment,
    exact_parity,
    grover_or,
    per_outcome,
    run_query_alg,
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
        assert rep.quantum_basis_count == (1 << rep.m) * rep.k_alg


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
    cases = [(3, ("000", "000")), (3, ("001", "001")), (3, ("111", "101")),
             (3, ("010", "110"))]
    # every n=2 pair: the register is small enough (dim 8) for any
    # small-machine special case of the step-level runner to show
    cases += [(2, (x, y)) for x in bitstrings(2) for y in bitstrings(2)]
    reports = {n: compile_query_to_qcfa(grover_or(n), and_gadget(), n) for n in (2, 3)}
    for n, (x, y) in cases:
        rep = reports[n]
        fast = run_compiled(rep, x, y)
        slow = qcfa_exact(rep.machine, payload(x, y))
        assert fast.accept_probability == slow.accept_probability, (x, y)
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
    theta, p_pad, d_w = rep.machine.theta, 2, rep.d_w
    for idx in range(n):
        want = CacheFlipOp(4, p_pad, d_w, idx // m, 1 << (m - 1 - idx % m)).describe()
        assert theta(("x1", 0, 1, idx), "1").describe() == want
        assert theta(("x2", 0, 1, idx + 1), "1").describe() == want
        assert theta(("x1", 0, 1, idx), "0") is theta(("x2", 0, 1, 0), "¢")
    for pref, bit in itertools.product(range(2), "01"):
        v = (pref << 1) | (bit == "1")
        flips = tuple(c for c in range(4) if rep.gflip[c, v])
        want = GadgetFlipOp(4, p_pad, d_w, 1, flips).describe()
        assert theta(("y", 0, 1, 3, pref), bit).describe() == want


def test_grover_rounds_share_their_routing(monkeypatch):
    calls = []

    def counting(*args, _orig=twoway.qquery._transposed):
        calls.append(args)
        return _orig(*args)

    monkeypatch.setattr(twoway.qquery, "_transposed", counting)
    n = 4096
    rep = compile_query_to_qcfa(grover_or(n), and_gadget(), n)
    assert len(calls) == 2                 # the non-last rounds and the last
    first, second, last = rep.segments[1], rep.segments[2], rep.segments[-1]
    assert second.dst is first.dst and second.src is first.src
    assert second.kind is first.kind
    assert last.dst is not first.dst
    assert second.next_segment != first.next_segment


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
