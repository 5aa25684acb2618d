"""Protocol extraction, brute-force communication cost, fingerprinting."""

import hashlib
import math
import random

import pytest

from twoway import automata
from twoway.boolfn import and_gadget, ip_gadget, parse_function
from twoway.commlab import (
    ALICE,
    BOB,
    FunctionMatrix,
    ProtocolMessage,
    ProtocolTranscript,
    block_exchange_protocol,
    bruteforce_dcc,
    composed_protocol_cost,
    eq_matrix,
    extract_protocol,
    fingerprint_protocol,
    machine_space,
)
from twoway.automata import dfa_from_table, run_dfa
from twoway.compiler import compile_query_to_qcfa
from twoway.errors import InputError, RefusalError
from twoway.handcrafted import build_eq_dfa, build_eq_pfa
from twoway.qquery import build_optimal_dt, exact_parity, grover_or


def test_transcript_totals():
    t = ProtocolTranscript(
        [ProtocolMessage(ALICE, 8, "state"),
         ProtocolMessage(BOB, 8, "state"),
         ProtocolMessage(ALICE, 1, "output")],
        1,
    )
    assert t.total_bits == 17
    assert t.crossings == 2           # output messages are not crossings


def script_dfa(moves):
    """A 2DFA that makes the head moves `moves` whatever it reads, then
    accepts."""
    table = {(j, sym): (j + 1 if j + 1 < len(moves) else "acc", mv)
             for j, mv in enumerate(moves) for sym in "¢01#$"}
    return dfa_from_table("script", table, 0, {"acc"}, set())


def test_handoffs_hand_example():
    # Alice owns [0, 4], Bob owns [3, 7]: the head walks 0..7, back to 2 and
    # up to 5; entering 5 hands off to Bob, coming back below 3 hands back
    # to Alice, and entering 5 again hands off to Bob
    regions = ((0, 4), (3, 7))
    machine = script_dfa([1] * 7 + [-1] * 5 + [1] * 3)
    trace = run_dfa(machine, "000000", regions=regions)
    assert trace.steps == 15
    assert trace.handoffs == [(5, 0), (12, 1), (15, 0)]
    assert run_dfa(machine, "000000").handoffs is None
    # on a longer tape the head reaches 8, outside both regions, on step 8
    with pytest.raises(InputError, match=r"head position 8 lies outside both regions "
                                         r"\(\(0, 4\), \(3, 7\)\)"):
        run_dfa(script_dfa([1] * 9), "0000000", regions=regions)


def test_eq_dfa_protocol_single_crossing():
    m = build_eq_dfa(4)
    tr = extract_protocol(m, "1011", "1011")
    assert tr.crossings == 1
    assert tr.total_bits == math.ceil(machine_space(m)) + 1 == 9
    assert tr.output == 1
    assert extract_protocol(m, "1011", "1010").output == 0


def test_eq_pfa_protocol_three_crossings():
    m = build_eq_pfa(4)
    tr = extract_protocol(m, "1011", "1011", seed=5)
    assert tr.crossings == 3
    assert tr.total_bits == 3 * math.ceil(machine_space(m)) + 1 == 31
    assert tr.output == 1             # members accept on every branch


def test_compiled_machine_protocol():
    rep = compile_query_to_qcfa(grover_or(4), and_gadget(), 4)
    m = rep.machine
    tr = extract_protocol(m, "0001", "0001", seed=0)
    assert tr.crossings >= 2
    assert tr.total_bits == tr.crossings * math.ceil(machine_space(m)) + 1
    # certificate: bits <= S * floor(T/n) + 1 on this run
    space = machine_space(m)
    from twoway.compiler import run_compiled
    t_run = run_compiled(rep, "0001", "0001").t_max
    assert tr.total_bits <= space * (t_run // 4) + 1


def _compiled(builder, n):
    return compile_query_to_qcfa(builder(n), and_gadget(), n).machine


# the sha256 prefix of the transcripts of seeds 0-39 on six pairs (two
# members first), the stretch tables cleared before every 7th seed; recorded
# when the crossings came from a replay of the run's head positions
PINNED_TRANSCRIPTS = {
    "eq-dfa:4": (lambda: build_eq_dfa(4), "b87921e28652b775"),
    "eq-dfa:6": (lambda: build_eq_dfa(6), "274fe65204ae7862"),
    "eq-pfa:4": (lambda: build_eq_pfa(4), "29b3e7ce0e95c4cc"),
    "eq-pfa:8": (lambda: build_eq_pfa(8), "36332bd79b1d6dac"),
    "grover-or:2": (lambda: _compiled(grover_or, 2), "9b382a930d961bfa"),
    "grover-or:4": (lambda: _compiled(grover_or, 4), "b587dabd6b093995"),
    "exact-parity:4": (lambda: _compiled(exact_parity, 4), "d1537d8b51211158"),
}


@pytest.mark.parametrize("ident", PINNED_TRANSCRIPTS)
def test_protocol_transcripts_are_pinned(ident):
    build, digest = PINNED_TRANSCRIPTS[ident]
    machine = build()
    n = int(ident.split(":")[1])
    rng = random.Random(ident)

    def word():
        return "".join(rng.choice("01") for _ in range(n))

    pairs = [(x, x) for x in (word(), word())] + [(word(), word()) for _ in range(4)]
    rows = []
    for x, y in pairs:
        for seed in range(40):
            if seed % 7 == 0:
                automata._stretches.clear()
            t = extract_protocol(machine, x, y, seed=seed)
            rows.append((t.messages, t.output))
    assert hashlib.sha256(repr(rows).encode()).hexdigest()[:16] == digest


def test_protocol_seed_stability():
    m = build_eq_pfa(3)
    a = extract_protocol(m, "101", "100", seed=9)
    b = extract_protocol(m, "101", "100", seed=9)
    assert a == b


def test_machine_space_adds_qubits():
    m = build_eq_dfa(3)
    assert machine_space(m) == math.log2(m.states.declared_bound)
    rep = compile_query_to_qcfa(grover_or(2), and_gadget(), 2)
    assert machine_space(rep.machine) == pytest.approx(
        math.log2(rep.quantum_basis_count) + math.log2(rep.declared_states)
    )


def test_function_matrix_constructors():
    mat = FunctionMatrix(((0, 0), (0, 1)))      # AND of one bit each
    assert mat.rows == 2 and mat.cols == 2 and mat.input_bits == 2
    with pytest.raises(InputError):
        FunctionMatrix(((0, 1, 0),))          # 3 columns: not a power of two
    with pytest.raises(InputError):
        FunctionMatrix(((0, 2), (0, 1)))


def test_eq_matrix_is_identity():
    mat = eq_matrix(2)
    assert mat.values == tuple(
        tuple(int(r == c) for c in range(4)) for r in range(4)
    )


def test_bruteforce_dcc_equality_values():
    assert bruteforce_dcc(eq_matrix(1)) == 2
    assert bruteforce_dcc(eq_matrix(2)) == 3
    assert bruteforce_dcc(eq_matrix(3)) == 4


def test_bruteforce_dcc_simple_functions():
    and_mat = FunctionMatrix(((0, 0), (0, 1)))
    assert bruteforce_dcc(and_mat) == 2
    const = FunctionMatrix(((1, 1), (1, 1)))
    assert bruteforce_dcc(const) == 0
    row_only = FunctionMatrix(((0, 0), (1, 1)))
    assert bruteforce_dcc(row_only) == 1      # Alice announces her bit


def test_bruteforce_dcc_refuses_large_matrices():
    with pytest.raises(RefusalError):
        bruteforce_dcc(eq_matrix(4))


def test_block_exchange_cost_is_width_plus_one():
    assert block_exchange_protocol(and_gadget()).cost_bits == 2
    assert block_exchange_protocol(ip_gadget(3)).cost_bits == 4


def test_composed_protocol_cost_and_correctness():
    tree = build_optimal_dt(parse_function("xor:2"))
    gp = block_exchange_protocol(ip_gadget(2))
    # 2 queries * 3 bits each
    out, bits = composed_protocol_cost(tree, gp, "1011", "0111")
    assert bits == 6
    z0 = ip_gadget(2)("10", "01")
    z1 = ip_gadget(2)("11", "11")
    assert out == (z0 + z1) % 2


def test_composed_protocol_exhaustive_or():
    tree = build_optimal_dt(parse_function("or:2"))
    gp = block_exchange_protocol(and_gadget())
    for xv in range(4):
        for yv in range(4):
            x, y = format(xv, "02b"), format(yv, "02b")
            out, bits = composed_protocol_cost(tree, gp, x, y)
            _, queries = tree.eval_with_queries(lambda i: int(x[i]) & int(y[i]))
            assert out == int(bool(xv & yv))
            assert bits == queries * gp.cost_bits
            assert bits <= tree.depth * gp.cost_bits == 4


def test_composed_protocol_validates_blocks():
    tree = build_optimal_dt(parse_function("or:3"))
    gp = block_exchange_protocol(and_gadget())
    with pytest.raises(InputError, match="queries block 2, input has 2 blocks"):
        composed_protocol_cost(tree, gp, "01", "10")


def test_fingerprint_budget_and_one_sided_error():
    n = 10
    budget = 2 * math.ceil(math.log2(n * n)) + 1
    for seed in range(20):
        tr = fingerprint_protocol("1011010011", "1011010011", seed=seed)
        assert tr.output == 1          # equal strings never rejected
        assert tr.total_bits <= budget == 15
    # difference 210 = 2*3*5*7 fools exactly those four of the 25 primes
    x, y = format(723, "010b"), format(513, "010b")
    wrong = sum(
        fingerprint_protocol(x, y, seed=s).output for s in range(60)
    )
    assert 0 < wrong < 30              # error is real but stays below half


def test_fingerprint_validates_lengths():
    with pytest.raises(InputError):
        fingerprint_protocol("01", "011")
