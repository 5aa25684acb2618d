"""The samplers' stretch tables: a trajectory replayed from a tape's cached
deterministic stretches equals the one stepped through them, and every
error the step walker raises is raised the same way on a warm cache. A
2QCFA stretch's register memo hands out copies, keeps to its bound of
cells and goes with its tape."""

import gc
import hashlib
import weakref
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from twoway import automata
from twoway.automata import (
    StateSpace,
    TwoWayQcfa,
    pfa_from_table,
    qcfa_sample,
    run_pfa_sample,
)
from twoway.boolfn import and_gadget
from twoway.compiler import compile_query_to_qcfa
from twoway.errors import InputError, NonHaltingError, SpecError
from twoway.handcrafted import build_eq_pfa
from twoway.ops import DenseOp, Measurement
from twoway.qquery import exact_parity, grover_or


def payload(x: str, y: str) -> str:
    return x + "#" * len(x) + y


def _compiled(builder, n):
    return compile_query_to_qcfa(builder(n), and_gadget(), n).machine


# machine, sampler, four (x, y) pairs, and the sha256 prefix of the traces
# of seeds 0-199 on each pair, recorded with the step-by-step walker
PINNED = {
    "grover-or:2": (lambda: _compiled(grover_or, 2), qcfa_sample,
                    [("00", "00"), ("01", "10"), ("11", "11"), ("10", "11")],
                    "8e985ac79a1da8fb"),
    "grover-or:4": (lambda: _compiled(grover_or, 4), qcfa_sample,
                    [("0000", "0000"), ("0110", "1001"), ("1111", "1111"),
                     ("1010", "0111")],
                    "aa6f54894179dc1e"),
    "exact-parity:4": (lambda: _compiled(exact_parity, 4), qcfa_sample,
                       [("0000", "1111"), ("1011", "1110"), ("1111", "1111"),
                        ("0101", "0011")],
                       "555f5ad4dbfb029d"),
    "eq-pfa:8": (lambda: build_eq_pfa(8), run_pfa_sample,
                 [("00000000", "00000000"), ("10110010", "10110010"),
                  ("10110010", "10110011"), ("11111111", "01111111")],
                 "90614ba5a6f17f26"),
    "eq-pfa:16": (lambda: build_eq_pfa(16), run_pfa_sample,
                  [("0" * 16, "0" * 16), ("1001110001011010", "1001110001011010"),
                   ("1001110001011010", "0001110001011010"), ("1" * 16, "1" * 15 + "0")],
                  "814fb34a65398329"),
}
SEEDS = range(200)


def _clear():
    automata._stretches.clear()


def _traces(machine, sampler, pairs, cold):
    out = []
    for x, y in pairs:
        for seed in SEEDS:
            if cold:
                _clear()
            out.append(sampler(machine, payload(x, y), seed=seed))
    return out


def _digest(traces) -> str:
    rows = [(t.outcome, t.steps, t.visited, repr(t.final_state), t.handoffs,
             t.accepted_bit, sorted(map(repr, t.origins))) for t in traces]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("ident", PINNED)
def test_sampler_traces_are_pinned_cold_and_warm(ident):
    build, sampler, pairs, digest = PINNED[ident]
    machine = build()
    cold = _traces(machine, sampler, pairs, cold=True)
    warm = _traces(machine, sampler, pairs, cold=False)
    assert warm == cold
    assert _digest(cold) == digest


def test_a_split_run_replays_the_tables_and_equals_a_cold_run():
    # seeds 0-49 on the grover-or:2 pairs, split into the protocol's regions
    build, sampler, pairs, _ = PINNED["grover-or:2"]
    machine = build()
    regions = ((0, 4), (3, 7))
    for x, y in pairs:
        word = payload(x, y)
        cold = []
        for seed in range(50):
            _clear()
            cold.append(sampler(machine, word, seed=seed, regions=regions))
        _clear()
        warm = [sampler(machine, word, seed=seed, regions=regions) for seed in range(50)]
        assert warm == cold
        assert any(t.handoffs for t in cold)
        # the split run keeps a table of its own, which the warm runs filled
        assert len(automata._stretches) == 1
        table = _table(machine, word, regions)
        assert table and all(len(key) == 3 for key in table)
        # every other field equals an unsplit run's
        unsplit = [sampler(machine, word, seed=seed) for seed in range(50)]
        assert [replace(t, handoffs=None) for t in cold] == unsplit


# --- a warm cache raises what a cold one does ---------------------------------------

HALF = Fraction(1, 2)
# seed 1 draws the first outcome of a fair coin or measurement, seed 0 the second
FIRST, SECOND = 1, 0


def _table(machine, word, regions=None):
    return automata._stretches[id(machine), word, regions][2]


def _outcome(run):
    """What `run()` returns, or the type, message and configuration of
    what it raises."""
    try:
        return run()
    except (NonHaltingError, SpecError, InputError) as err:
        return type(err), str(err), getattr(err, "configuration", None)


def _cold_and_warm(run, warm_up):
    _clear()
    cold = _outcome(run)
    _clear()
    warm_up()
    return cold, _outcome(run)


def test_a_cutoff_inside_a_cached_stretch_raises_at_its_step():
    # heads walks b right over the payload to $: a cached stretch of 5 steps
    # from (b, 1), one step in
    table = {("a", "¢"): [(HALF, "b", 1), (HALF, "yes", 0)],
             ("b", "0"): [(Fraction(1), "b", 1)],
             ("b", "$"): [(Fraction(1), "yes", 0)]}
    m = pfa_from_table("walk", table, "a", {"yes"}, set())
    word = "0000"

    def warm_up():
        assert run_pfa_sample(m, word, seed=FIRST).steps == 6
        assert _table(m, word)["b", 1, 0][:3] == ("yes", 5, 5)

    for cutoff, want in [
        (5, (NonHaltingError, "walk: step cutoff 5 exceeded", ("b", 5))),
        (3, (NonHaltingError, "walk: step cutoff 3 exceeded", ("b", 3))),
    ]:
        cold, warm = _cold_and_warm(
            lambda: run_pfa_sample(m, word, seed=FIRST, cutoff=cutoff), warm_up)
        assert cold == warm == want
    # a hit that ends exactly at the cutoff halts, as a stepped one does
    cold, warm = _cold_and_warm(
        lambda: run_pfa_sample(m, word, seed=FIRST, cutoff=6), warm_up)
    assert cold == warm and warm.steps == 6


def _measure_then(route, action):
    """A Hadamard at ¢, a measurement, then `route(label)` and `action` at
    the state "fix"; "done" accepts."""
    h = DenseOp(np.array([[1, 1], [1, -1]]) / np.sqrt(2), "H")
    meas = Measurement(2, {"zero": (0,), "one": (1,)}, "read")
    return TwoWayQcfa(
        "coin", StateSpace("go", lambda s: "accept" if s == "done" else None, 4, "4"), 2,
        lambda state, sym: {"go": h, "read": meas, "fix": action}[state],
        lambda state, sym: {"go": ("read", 0), "fix": ("done", 1)}[state],
        lambda state, sym, label: route(label))


def test_an_operator_drifting_inside_a_cached_stretch_is_reported_where_it_acts():
    # both outcomes enter the stretch from (fix, 1), whose operator keeps
    # |0> and doubles |1>: the first outcome caches it, the second drifts
    drift = DenseOp(np.diag([1.0, 2.0]), "drift")
    m = _measure_then(lambda label: ("fix", 1), drift)

    def warm_up():
        assert qcfa_sample(m, "0", seed=FIRST).outcome == "accept"
        assert [where for _, where in _table(m, "0")["fix", 1, 0][5]] == ["at ('fix', '0')"]

    cold, warm = _cold_and_warm(lambda: qcfa_sample(m, "0", seed=SECOND), warm_up)
    assert cold == warm == (SpecError, "state norm drifted by 3.000e+00 at ('fix', '0')",
                            None)


def test_a_head_move_right_after_a_draw_raises_on_a_warm_run():
    # the first outcome halts, which caches the stretch up to the draw; the
    # second moves off the left end: the coin is step 1, the measurement
    # (after the Hadamard) step 2
    pfa = pfa_from_table("coin", {("a", "¢"): [(HALF, "yes", 0), (HALF, "b", -1)]},
                         "a", {"yes"}, set())
    qcfa = _measure_then(lambda label: ("done", 0) if label == "zero" else ("fix", -1),
                         None)
    for m, sampler, step in [(pfa, run_pfa_sample, 1), (qcfa, qcfa_sample, 2)]:
        def warm_up():
            assert sampler(m, "0", seed=FIRST).steps == step
        cold, warm = _cold_and_warm(lambda: sampler(m, "0", seed=SECOND), warm_up)
        assert cold == warm == (
            SpecError, f"coin: head moved left of the left end marker on step {step} "
                       "at head position 0", None)


def test_a_draw_that_moves_the_head_across_hands_off():
    # the coin's second outcome moves the head from 1 to 2, and b walks on
    # to $ and halts: on ((0, 1), (2, 4)) the draw hands off at step 2, on
    # ((0, 3), (1, 4)) the walk does on $ at step 4
    table = {("a", "¢"): [(Fraction(1), "a", 1)],
             ("a", "0"): [(HALF, "yes", 0), (HALF, "b", 1)],
             ("b", "0"): [(Fraction(1), "b", 1)],
             ("b", "$"): [(Fraction(1), "yes", 0)]}
    m = pfa_from_table("cross", table, "a", {"yes"}, set())
    for regions, want in [(((0, 1), (2, 4)), [(2, 0)]), (((0, 3), (1, 4)), [(4, 0)])]:
        cold, warm = _cold_and_warm(
            lambda: run_pfa_sample(m, "000", seed=SECOND, regions=regions).handoffs,
            lambda: run_pfa_sample(m, "000", seed=SECOND, regions=regions))
        assert cold == warm == want
    # a draw that lands outside both regions raises on its step
    cold, warm = _cold_and_warm(
        lambda: run_pfa_sample(m, "000", seed=SECOND, regions=((0, 1), (3, 4))),
        lambda: run_pfa_sample(m, "000", seed=FIRST, regions=((0, 1), (3, 4))))
    assert cold == warm == (
        InputError, "head position 2 lies outside both regions ((0, 1), (3, 4))", None)


def test_a_machine_built_after_a_dropped_one_never_reads_its_tables():
    # both machines halt on their first configuration (a, 0) on the same
    # tape; a table read under a reused id would give the other's outcome
    for i in range(20):
        halt = "yes" if i % 2 else "no"
        m = pfa_from_table("m", {("a", "¢"): [(Fraction(1), halt, 0)]}, "a", {"yes"}, {"no"})
        assert run_pfa_sample(m, "01").final_state == halt
        del m
        gc.collect()


def test_the_cache_keeps_at_most_its_bound_of_tapes():
    m = pfa_from_table("scan", {("a", "¢"): [(HALF, "yes", 0), (HALF, "no", 0)]},
                       "a", {"yes"}, {"no"})
    _clear()
    for k in range(3 * automata._STRETCH_TAPES):
        run_pfa_sample(m, format(k, "b"))
        assert len(automata._stretches) == min(k + 1, automata._STRETCH_TAPES)
    # a 2QCFA tape's register memo goes with it: the first tape's stored
    # register is freed once later tapes evict the tape
    q = _measure_then(lambda label: ("done", 0), None)
    _clear()
    qcfa_sample(q, "0")
    (ending,) = _table(q, "0")["go", 0, 0][7].values()
    stored = weakref.ref(ending[0])
    del ending
    for k in range(1, automata._STRETCH_TAPES + 1):
        qcfa_sample(q, format(k, "b"))
    gc.collect()
    assert (id(q), "0", None) not in automata._stretches
    assert stored() is None


# --- the register memo ----------------------------------------------------------------


def test_a_memo_hit_hands_out_a_register_the_memo_does_not_share():
    # grover-or:2 on one pair: warm runs fill the memos; then every entry is
    # hit and the register it hands out is written into by the machine's own
    # x-pass cache flip, which writes into its input. Warm runs after that
    # still equal cold ones
    build, sampler, pairs, _ = PINNED["grover-or:2"]
    machine = build()
    word = payload(*pairs[1])
    flip = machine.theta(("x1", 0, 0, 0), "1")
    cold = []
    for seed in range(50):
        _clear()
        cold.append(qcfa_sample(machine, word, seed=seed))
    _clear()
    assert [qcfa_sample(machine, word, seed=seed) for seed in range(50)] == cold
    register = automata._QcfaRegister(machine, None)
    written = 0
    for stretch in _table(machine, word).values():
        memo = stretch[7]
        for begun, ending in list(memo.items()):
            register.psi = np.frombuffer(begun, dtype=np.complex128).copy()
            register.replay(stretch[5], memo)
            assert register.ending is ending
            kept, handed = ending[0].copy(), register.psi.copy()
            flip.apply(register.psi)
            written += not np.array_equal(register.psi, handed)
            assert np.array_equal(ending[0], kept)
    assert written
    assert [qcfa_sample(machine, word, seed=seed) for seed in range(50)] == cold


def _drifting_register():
    """A dim-4 register (qubits A and B, A major): each round turns A by one
    radian and B by 0.1, then measures B; B = 1 accepts and B = 0 goes round
    again, on a register no earlier round had, since A's angle never repeats."""
    c, s = np.cos, np.sin
    turn = DenseOp(np.kron([[c(1.0), -s(1.0)], [s(1.0), c(1.0)]],
                           [[c(0.1), -s(0.1)], [s(0.1), c(0.1)]]), "turn")
    meas = Measurement(4, {"b0": (0, 2), "b1": (1, 3)}, "B")
    return TwoWayQcfa(
        "drift", StateSpace("go", lambda s: "accept" if s == "done" else None, 3, "3"), 4,
        lambda state, sym: turn if state == "go" else meas,
        lambda state, sym: ("read", 0),
        lambda state, sym, label: ("go", 0) if label == "b0" else ("done", 0))


def test_the_memo_keeps_to_its_bound_of_cells(monkeypatch):
    m = _drifting_register()
    seeds = range(20)
    monkeypatch.setattr(automata, "_MEMO_CELLS", 0)
    _clear()
    unmemoised = [qcfa_sample(m, "0", seed=seed) for seed in seeds]
    assert sum(t.steps for t in unmemoised) > 40 * len(seeds)   # long runs
    bound = 10 * 4                                              # ten registers
    monkeypatch.setattr(automata, "_MEMO_CELLS", bound)
    _clear()
    for seed, want in zip(seeds, unmemoised):
        assert qcfa_sample(m, "0", seed=seed) == want
        _, _, table, room = automata._stretches[id(m), "0", None]
        stored = sum(end.size + 4 * len(outcomes or ())
                     for stretch in table.values() for end, outcomes in stretch[7].values())
        assert stored == bound - room[0] <= bound
    assert room[0] < 4                                          # the bound was reached
