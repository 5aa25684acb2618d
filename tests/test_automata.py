"""Runner semantics on tiny machines whose behavior is checked by hand."""

import random
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from twoway.automata import (
    DEFAULT_CUTOFF,
    ExactRunResult,
    TwoWayQcfa,
    StateSpace,
    dfa_from_table,
    pfa_exact,
    pfa_from_table,
    qcfa_exact,
    qcfa_sample,
    run_dfa,
    run_pfa_sample,
)
from twoway.errors import InputError, NonHaltingError, SpecError
from twoway.ops import BasisSwapOp, CompleteMeasurement, DenseOp, IdentityOp, Measurement
from twoway.serialize import load_machine, machine_to_json


def sweep_dfa():
    """Accept iff the payload is 0* : one left-to-right sweep."""
    table = {
        ("scan", "¢"): ("scan", 1),
        ("scan", "0"): ("scan", 1),
        ("scan", "1"): ("no", 0),
        ("scan", "$"): ("yes", 0),
    }
    return dfa_from_table("zeros", table, "scan", {"yes"}, {"no"})


def test_dfa_accepts_and_counts_steps():
    m = sweep_dfa()
    trace = run_dfa(m, "000")
    assert trace.outcome == "accept"
    assert trace.accepted_bit == 1
    # ¢ 0 0 0 $: one step per cell
    assert trace.steps == 5
    assert trace.visited == 1          # every transition originates in scan
    trace = run_dfa(m, "010")
    assert trace.outcome == "reject" and trace.accepted_bit == 0


def test_dfa_handoffs_recorded():
    # ¢ 0 0 $: the head is at 0, 1, 2, 3, 3 after steps 0-4
    m = sweep_dfa()
    assert run_dfa(m, "00").handoffs is None
    assert run_dfa(m, "00", regions=((0, 1), (2, 3))).handoffs == [(2, 0)]
    assert run_dfa(m, "00", regions=((0, 3), (0, 3))).handoffs == []
    # a start outside the first region hands off before the first step
    assert run_dfa(m, "00", regions=((1, 3), (0, 0))).handoffs == [(0, 0), (1, 1)]


def test_dfa_missing_transition_is_spec_error():
    table = {("s", "¢"): ("s", 1)}
    m = dfa_from_table("hole", table, "s", set(), set())
    with pytest.raises(SpecError):
        run_dfa(m, "0")


def test_dfa_loop_detected():
    table = {
        ("s", "¢"): ("s", 1),
        ("s", "0"): ("t", -1),
        ("t", "¢"): ("s", 1),        # two-cycle, never halts
    }
    m = dfa_from_table("loop", table, "s", set(), set())
    with pytest.raises(NonHaltingError, match="loop: configuration repeats"):
        run_dfa(m, "0")
    pfa = pfa_from_table(
        "loop", {k: [(Fraction(1), *v)] for k, v in table.items()}, "s", set(), set()
    )
    with pytest.raises(NonHaltingError,
                       match="loop: configuration repeats, machine cannot halt"):
        pfa_exact(pfa, "0")


def test_circular_dfa_wraps_off_the_right_end():
    # moving right from $ lands back on ¢ only when circular
    table = {
        ("a", "¢"): ("b", 1),
        ("b", "0"): ("b", 1),
        ("b", "$"): ("c", 1),
        ("c", "¢"): ("yes", 0),
    }
    m = dfa_from_table("wrap", table, "a", {"yes"}, set(), circular=True)
    assert run_dfa(m, "0").outcome == "accept"
    flat = dfa_from_table("flat", table, "a", {"yes"}, set(), circular=False)
    with pytest.raises(SpecError):
        run_dfa(flat, "0")


def coin_pfa():
    """Accept with probability 1/2 on the single payload "0"."""
    half = Fraction(1, 2)
    table = {
        ("s", "¢"): [(Fraction(1), "s", 1)],
        ("s", "0"): [(half, "yes", 0), (half, "no", 0)],
    }
    return pfa_from_table("coin", table, "s", {"yes"}, {"no"})


def test_pfa_exact_probability_is_rational():
    res = pfa_exact(coin_pfa(), "0")
    assert res.accept_probability == Fraction(1, 2)
    assert type(res.accept_probability) is Fraction
    assert res.t_max == 2              # marker step, then the branch step


def test_pfa_probabilities_must_sum_to_one():
    bad = {
        ("s", "¢"): [(Fraction(1, 3), "yes", 0)],
    }
    m = pfa_from_table("leaky", bad, "s", {"yes"}, {"no"})
    with pytest.raises(SpecError):
        pfa_exact(m, "0")


def test_pfa_sampling_matches_exact_on_average():
    m = coin_pfa()
    hits = sum(
        run_pfa_sample(m, "0", seed=i).outcome == "accept" for i in range(400)
    )
    assert 140 <= hits <= 260          # 4 sigma around 200


def test_pfa_exact_handles_two_sided_randomness():
    # random walk between markers: still halts, probabilities still rational
    third = Fraction(1, 3)
    table = {
        ("s", "¢"): [(Fraction(1), "s", 1)],
        ("s", "0"): [(third, "s", 1), (third * 2, "yes", 0)],
        ("s", "$"): [(Fraction(1), "no", 0)],
    }
    m = pfa_from_table("walk", table, "s", {"yes"}, {"no"})
    res = pfa_exact(m, "00")
    # accept unless both cells pick the move-on branch: 1 - 1/9
    assert res.accept_probability == Fraction(8, 9)


def deep_chain_pfa():
    """A fair coin at ¢, then a deterministic sweep to $ where the heads
    branch accepts, so a payload of L zeros gives a run L+2 steps long."""
    one, half = Fraction(1), Fraction(1, 2)
    table = {
        ("s", "¢"): [(half, "h", 1), (half, "t", 1)],
        ("h", "0"): [(one, "h", 1)],
        ("t", "0"): [(one, "t", 1)],
        ("h", "$"): [(one, "yes", 0)],
        ("t", "$"): [(one, "no", 0)],
    }
    return pfa_from_table("deep", table, "s", {"yes"}, {"no"})


def test_pfa_exact_chain_solves_deep_chains_without_recursion(monkeypatch):
    def refuse(limit):
        raise AssertionError("pfa_exact must not touch the recursion limit")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    res = pfa_exact(deep_chain_pfa(), "0" * 50_000)
    assert res.accept_probability == Fraction(1, 2)
    assert res.t_max == res.t_max_accepting == res.t_max_rejecting == 50_002
    assert res.visited == 3                      # s, h, t


def test_pfa_exact_chain_honours_the_cutoff():
    m = deep_chain_pfa()
    with pytest.raises(NonHaltingError,
                       match="deep: step cutoff 1000 exceeded"):
        pfa_exact(m, "0" * 50_000, cutoff=1000)
    # the same boundary as the sampler's: a run of exactly `cutoff` steps halts
    assert pfa_exact(m, "0" * 10, cutoff=12).t_max == 12
    assert run_pfa_sample(m, "0" * 10, cutoff=12).steps == 12
    for run in (pfa_exact, run_pfa_sample):
        with pytest.raises(NonHaltingError):
            run(m, "0" * 10, cutoff=11)


def test_pfa_exact_cutoff_bounds_the_longest_path_into_a_shared_node():
    # the coin at ¢ lists its long branch b first, so the walk finds node
    # (x, 1) on the short branch a (after 2 steps) before b (after 4) rejoins
    # it; x takes 2 more steps to accept
    one, half = Fraction(1), Fraction(1, 2)
    table = {
        ("s", "¢"): [(half, "b", 0), (half, "a", 1)],
        ("a", "0"): [(half, "x", 0), (half, "yes", 0)],
        ("b", "¢"): [(one, "b2", 0)],
        ("b2", "¢"): [(one, "b3", 1)],
        ("b3", "0"): [(half, "x", 0), (half, "no", 0)],
        ("x", "0"): [(one, "x", 1)],
        ("x", "$"): [(one, "yes", 0)],
    }
    m = pfa_from_table("dag", table, "s", {"yes"}, {"no"})
    res = pfa_exact(m, "0", cutoff=6)
    assert (res.accept_probability, res.t_max, res.t_max_rejecting) == (Fraction(3, 4), 6, 4)
    with pytest.raises(NonHaltingError,
                       match="dag: longest run of 6 steps exceeds the step cutoff 5"):
        pfa_exact(m, "0", cutoff=5)


def test_pfa_sample_never_draws_an_outcome_of_probability_zero():
    class Top(random.Random):
        def random(self):
            return 1 - 2**-53              # past the float sum of ten tenths

    table = {("s", "¢"): [(Fraction(1, 10), "yes", 0)] * 10 + [(Fraction(0), "bad", 0)]}
    m = pfa_from_table("tenths", table, "s", {"yes"}, {"bad"})
    assert pfa_exact(m, "").accept_probability == 1
    assert run_pfa_sample(m, "", seed=Top()).outcome == "accept"


# --- the checks every step loop carries -------------------------------------------


def _pfa_runner(exact, one_shot_document=False):
    def run(name, table, circular=False):
        dists = {k: v if isinstance(v, list) else [(Fraction(1), *v)]
                 for k, v in table.items()}
        m = pfa_from_table(name, dists, "a", {"yes"}, set(), circular)
        if one_shot_document:
            # older documents mark one-shot machines; the key is ignored on
            # load, and such a machine gets the same checks as any other
            m = load_machine({**machine_to_json(m), "one_shot": True})
        return pfa_exact(m, "0") if exact else run_pfa_sample(m, "0")
    return run


def _dfa_runner(name, table, circular=False):
    return run_dfa(dfa_from_table(name, table, "a", {"yes"}, set(), circular), "0")


PFA_RUNNERS = {
    "run_pfa_sample": _pfa_runner(False),
    "pfa_exact-chain": _pfa_runner(True),
    "pfa_exact-one-shot": _pfa_runner(True, one_shot_document=True),
}
RUNNERS = {"run_dfa": _dfa_runner, **PFA_RUNNERS}

# tables over the payload "0" (tape ¢ 0 $ at positions 0..2)
MOVE_CASES = {
    "off-left": (
        {("a", "¢"): ("b", 1), ("b", "0"): ("c", -1), ("c", "¢"): ("d", -1)},
        r"walker: head moved left of the left end marker on step 3 "
        r"at head position 0$",
    ),
    "off-right": (
        {("a", "¢"): ("b", 1), ("b", "0"): ("b", 1), ("b", "$"): ("c", 1),
         ("c", "¢"): ("yes", 0)},
        r"walker: head moved right of the right end marker on step 3 "
        r"at head position 2$",
    ),
    "move-2": (
        {("a", "¢"): ("b", 1), ("b", "0"): ("c", 2)},
        r"walker: illegal head move 2 on step 2 at head position 1$",
    ),
}


@pytest.mark.parametrize("case", MOVE_CASES)
@pytest.mark.parametrize("runner", RUNNERS)
def test_illegal_head_moves_name_machine_step_and_position(runner, case):
    table, message = MOVE_CASES[case]
    with pytest.raises(SpecError, match=message):
        RUNNERS[runner]("walker", table)


@pytest.mark.parametrize("runner", PFA_RUNNERS)
def test_circular_tape_wraps_in_the_pfa_runners(runner):
    # the run_dfa case is test_circular_dfa_wraps_off_the_right_end
    table, _ = MOVE_CASES["off-right"]
    res = PFA_RUNNERS[runner]("walker", table, circular=True)
    if isinstance(res, ExactRunResult):
        assert res.accept_probability == 1 and res.t_max == 4
    else:
        assert res.outcome == "accept" and res.steps == 4


@pytest.mark.parametrize("runner", PFA_RUNNERS)
def test_single_outcome_distributions_must_be_certain(runner):
    table = {("a", "¢"): [(Fraction(1), "b", 1)],
             ("b", "0"): [(Fraction(1, 2), "yes", 0)]}
    with pytest.raises(SpecError,
                       match=r"walker: probabilities at \('b', '0'\) sum to 1/2, not 1"):
        PFA_RUNNERS[runner]("walker", table)


def hadamard_qcfa():
    """One Hadamard, then a complete measurement: accept iff outcome 0."""
    h = DenseOp(np.array([[1, 1], [1, -1]]) / np.sqrt(2), "H")
    meas = Measurement(2, {"zero": (0,), "one": (1,)}, "read")

    def theta(state, sym):
        return h if state == "go" else meas

    def step(state, sym):
        return ("read", 0)

    def step_measure(state, sym, label):
        return ("acc" if label == "zero" else "rej", 0)

    space = StateSpace(
        "go",
        lambda s: {"acc": "accept", "rej": "reject"}.get(s),
        4, "4",
    )
    return TwoWayQcfa("had", space, 2, theta, step, step_measure)


def test_qcfa_exact_splits_on_measurement():
    res = qcfa_exact(hadamard_qcfa(), "0")
    assert abs(res.accept_probability - 0.5) < 1e-12
    assert res.branch_count >= 2


def test_qcfa_sample_is_seed_stable():
    m = hadamard_qcfa()
    outs = [qcfa_sample(m, "0", seed=s).outcome for s in range(60)]
    assert outs == [qcfa_sample(m, "0", seed=s).outcome for s in range(60)]
    assert {"accept", "reject"} == set(outs)


@pytest.mark.parametrize("broken,message", [
    ({"step_measure": lambda state, sym, label: None},
     r"no route for outcome '(zero|one)' at \('read', '¢'\)"),
    ({"step": lambda state, sym: None}, r"undefined transition at \('go', '¢'\)"),
], ids=["outcome", "step"])
def test_qcfa_runners_reject_missing_routes_alike(broken, message):
    m = replace(hadamard_qcfa(), **broken)
    for run in (qcfa_exact, qcfa_sample):
        with pytest.raises(SpecError, match=message):
            run(m, "0")


def test_undefined_transitions_name_step_and_position():
    # the transition out of ¢ is defined; the one on 0 (position 1) is not
    for runner in RUNNERS.values():
        with pytest.raises(SpecError, match=r"walker: undefined transition at \('b', '0'\) "
                                            r"on step 2 at head position 1$"):
            runner("walker", {("a", "¢"): ("b", 1)})
    had = hadamard_qcfa()          # a Hadamard on every step, never a measurement
    m = replace(had, theta=lambda state, sym: had.theta("go", sym),
                step=lambda state, sym: ("go", 1) if sym == "¢" else None)
    for run in (qcfa_exact, qcfa_sample):
        with pytest.raises(SpecError, match=r"had: undefined transition at \('go', '0'\) "
                                            r"on step 2 at head position 1$"):
            run(m, "0")


def test_transition_errors_name_step_and_position():
    # each on the transition out of 0 (position 1), the second step
    dists = {r"probabilities at \('b', '0'\) sum to 1/2, not 1": [(HALF, "yes", 0)],
             r"negative probability at \('b', '0'\)": [(3 * HALF, "yes", 0), (-HALF, "yes", 0)]}
    for what, dist in dists.items():
        for runner in PFA_RUNNERS.values():
            with pytest.raises(SpecError, match=rf"walker: {what} on step 2 at head position 1$"):
                runner("walker", {("a", "¢"): ("b", 1), ("b", "0"): dist})
    had = hadamard_qcfa()
    right = replace(had, step=lambda state, sym: ("read", 1))    # H at ¢, then measure

    def on_marker(state, sym):             # no quantum action on 0
        return had.theta(state, sym) if sym == "¢" else None

    broken = {
        r"no quantum action at \('read', '0'\)": replace(right, theta=on_marker),
        r"no route for outcome '(zero|one)' at \('read', '0'\)":
            replace(right, step_measure=lambda state, sym, label: None),
    }
    for what, m in broken.items():
        for run in (qcfa_exact, qcfa_sample):
            with pytest.raises(SpecError, match=rf"had: {what} on step 2 at head position 1$"):
                run(m, "0")


def test_qcfa_head_move_errors_name_step_and_position():
    m = replace(hadamard_qcfa(), step=lambda state, sym: ("read", -1))
    for run in (qcfa_exact, qcfa_sample):
        with pytest.raises(SpecError, match=r"had: head moved left of the left end "
                                            r"marker on step 1 at head position 0$"):
            run(m, "0")


# --- the repeated-configuration rule every trajectory runner shares ---------------


HALF = Fraction(1, 2)
# a coin at ¢ whose outcomes both enter the certain two-cycle b@0 <-> c@1
COIN_THEN_CYCLE = {
    ("a", "¢"): [(HALF, "b", 0), (HALF, "c", 1)],
    ("b", "¢"): [(Fraction(1), "c", 1)],
    ("c", "0"): [(Fraction(1), "b", -1)],
}


def test_pfa_sample_raises_on_a_repeat_after_the_last_coin():
    m = pfa_from_table("cycle", COIN_THEN_CYCLE, "a", {"yes"}, set())
    for seed in range(4):                  # both coin outcomes
        with pytest.raises(NonHaltingError,
                           match="cycle: configuration repeats, machine cannot halt"):
            run_pfa_sample(m, "0", seed=seed)


def test_pfa_exact_raises_on_a_repeat_after_a_coin():
    # heads accepts; tails enters the certain two-cycle b@1 <-> c@0
    table = {
        ("a", "¢"): [(HALF, "yes", 0), (HALF, "b", 1)],
        ("b", "0"): [(Fraction(1), "c", -1)],
        ("c", "¢"): [(Fraction(1), "b", 1)],
    }
    m = pfa_from_table("tails", table, "a", {"yes"}, set())
    with pytest.raises(NonHaltingError,
                       match="tails: configuration repeats, machine cannot halt"):
        pfa_exact(m, "0")


def test_qcfa_runners_raise_on_a_control_cycle_of_identity_ops():
    identity = IdentityOp(2)
    cycle = {("a", "¢"): ("b", 1), ("b", "0"): ("a", -1)}
    space = StateSpace("a", lambda s: None, 2, "2")
    m = TwoWayQcfa("spin", space, 2, lambda state, sym: identity,
                   lambda state, sym: cycle.get((state, sym)),
                   lambda state, sym, label: None)
    # a runner without the rule spins to the cutoff and names that instead
    for run in (qcfa_exact, qcfa_sample):
        with pytest.raises(NonHaltingError,
                           match="spin: configuration repeats, machine cannot halt"):
            run(m, "0", cutoff=100_000)


def test_qcfa_runners_raise_on_a_control_cycle_of_hadamards():
    # the control cycle a@0 -> b@1 -> a@0 applies a Hadamard on every step:
    # the repeat spans unitaries, and a runner that forgot the configurations
    # passed at each one would spin to the cutoff
    h = DenseOp(np.array([[1, 1], [1, -1]]) / np.sqrt(2), "H")
    cycle = {("a", "¢"): ("b", 1), ("b", "0"): ("a", -1)}
    space = StateSpace("a", lambda s: None, 2, "2")
    m = TwoWayQcfa("flip", space, 2, lambda state, sym: h,
                   lambda state, sym: cycle.get((state, sym)),
                   lambda state, sym, label: None)
    for run in (qcfa_exact, qcfa_sample):
        with pytest.raises(NonHaltingError,
                           match="flip: configuration repeats, machine cannot halt"):
            run(m, "0", cutoff=100_000)


def test_qcfa_exact_restarts_across_measurements_are_not_repeats():
    # a Hadamard coin at ¢, measured: "zero" accepts, "one" walks right and
    # back to (go, 0), the configuration the run began in, until the
    # remaining weight 2^-40 falls below the pruning floor
    h = DenseOp(np.array([[1, 1], [1, -1]]) / np.sqrt(2), "H")
    meas = Measurement(2, {"zero": (0,), "one": (1,)}, "read")
    identity = IdentityOp(2)
    m = TwoWayQcfa(
        "restart", StateSpace("go", lambda s: "accept" if s == "acc" else None, 4, "4"), 2,
        lambda state, sym: {"go": h, "read": meas}.get(state, identity),
        lambda state, sym: {"go": ("read", 0), "back": ("go", -1)}.get(state),
        lambda state, sym, label: ("acc", 0) if label == "zero" else ("back", 1))
    res = qcfa_exact(m, "0")
    assert (res.accept_probability, res.t_max, res.branch_count) == \
        (0.9999999999981806, 116, 39)


def test_restarts_across_coin_flips_are_not_repeats():
    # every tails flip walks back to (a, 0), the configuration the run began in
    restart = {
        ("a", "¢"): [(HALF, "yes", 0), (HALF, "b", 1)],
        ("b", "0"): [(Fraction(1), "a", -1)],
    }
    m = pfa_from_table("restart", restart, "a", {"yes"}, set())
    steps = [run_pfa_sample(m, "0", seed=s).steps for s in range(40)]
    assert max(steps) > 3                  # some run came back to (a, 0) twice
    assert all(k % 2 == 1 for k in steps)  # one step per heads, two per tails
    res = pfa_exact(m, "0")
    assert res.accept_probability == 1 and not res.time_bounded


def test_qcfa_exact_merges_branches_that_stop_on_equal_registers_at_different_steps():
    # a Hadamard and a measurement at ¢: outcome 0 sweeps to $ and back on
    # |0>, outcome 1 swaps |1> to |0> at once; both stop at (meet, 0), whose
    # step is no identity, on one register, 18 steps apart
    h = DenseOp(np.array([[1, 1], [1, -1]]) / np.sqrt(2), "H")
    actions = {"go": h, "read": CompleteMeasurement(2), "swap": BasisSwapOp(2, 0, 1),
               "meet": h}
    walks = {"go": ("read", 0), "swap": ("meet", 0), "meet": ("done", 0)}

    def step(state, sym):
        if state == "out":
            return ("out", 1) if sym != "$" else ("back", -1)
        if state == "back":
            return ("back", -1) if sym != "¢" else ("meet", 0)
        return walks[state]

    m = TwoWayQcfa(
        "meet", StateSpace("go", lambda s: "accept" if s == "done" else None, 7, "7"), 2,
        lambda state, sym: actions.get(state, IdentityOp(2)), step,
        lambda state, sym, label: ("out", 0) if label == 0 else ("swap", 0))
    res = qcfa_exact(m, "0" * 8)
    # merged where they stop, the branch keeps the later step count: the
    # time fields are the longer path's, as they would be unmerged
    assert (res.branch_count, res.t_max, res.t_max_accepting) == (1, 22, 22)
    assert res.accept_probability == 1 - 2 ** -52      # each outcome weighs 1/2 - 2^-53
    assert {qcfa_sample(m, "0" * 8, seed=s).steps for s in range(8)} == {4, 22}


def test_qcfa_exact_and_sample_on_a_hadamard_coin():
    m = hadamard_qcfa()
    assert abs(qcfa_exact(m, "0").accept_probability - 0.5) < 1e-12
    assert qcfa_sample(m, "0", seed=1).outcome in ("accept", "reject")


def test_sweep_dfa_census_and_time():
    m = sweep_dfa()
    traces = [run_dfa(m, w) for w in ("000", "010")]
    assert max(t.steps for t in traces) == 5
    visited = frozenset().union(*(t.origins for t in traces))
    assert len(visited) == 1 and len(visited) <= m.states.declared_bound


def test_payload_alphabet_validated():
    with pytest.raises(InputError):
        run_dfa(sweep_dfa(), "0a1")
