"""Query algorithms: acceptance probabilities, call counts, decision trees."""

import dataclasses
import itertools

import numpy as np
import pytest

import twoway.qquery
from twoway.boolfn import BoolFunction, and_fn, or_fn, parse_function, xor_fn
from twoway.errors import InputError, RefusalError, SpecError
from twoway.ops import (
    MINUS_PREP,
    BasisSwapOp,
    CompleteMeasurement,
    DenseOp,
    DiffusionOp,
    IdentityOp,
    OnAnswerOp,
    RegisterLayout,
)
from twoway.qquery import (
    DT_ARITY_CAP,
    REJECT,
    Decision,
    DecisionTree,
    QueryAlgorithm,
    Segment,
    build_optimal_dt,
    dt_optimal_depth,
    exact_parity,
    grover_or,
    leaf,
    parse_query_algorithm,
    run_query_alg,
    validate_algorithm,
)


def bitstrings(p):
    return ("".join(b) for b in itertools.product("01", repeat=p))


def test_grover_one_sided_on_all_zero_input():
    for n in (2, 4, 8):
        assert run_query_alg(grover_or(n), "0" * n) == 0.0


def test_grover_members_accept_with_good_probability():
    for n in (2, 4, 8):
        alg = grover_or(n)
        worst = min(
            run_query_alg(alg, z)
            for z in bitstrings(n) if "1" in z
        )
        assert worst >= 2 / 3
        assert worst >= 1 - alg.declared_error


def test_grover_frozen_single_solution_value():
    # n=4, one solution: the j=1 pass rotates to sin^2(3*pi/6) = 1 exactly,
    # up to float roundoff; the measured value is frozen here
    p = run_query_alg(grover_or(4), "0001")
    assert abs(p - 1.0) < 1e-9


def test_grover_call_count_scales_as_square_root():
    assert grover_or(4).total_calls == 12
    # doubling n should multiply calls by about sqrt(2) over the schedule
    c16, c64 = grover_or(16).total_calls, grover_or(64).total_calls
    assert 1.5 <= c64 / c16 <= 2.5
    assert grover_or(64).query_constant * (64 ** 0.5) >= c64


def test_grover_segment_structure():
    alg = grover_or(4)
    assert len(alg.segments) == 8
    assert sum(s.calls for s in alg.segments) == alg.total_calls
    validate_algorithm(alg)


def test_exact_parity_is_exact():
    for n in (2, 4, 6):
        alg = exact_parity(n)
        assert alg.total_calls == n // 2
        for z in bitstrings(n):
            p = run_query_alg(alg, z)
            target = z.count("1") % 2
            assert abs(p - target) < 1e-9


def test_exact_parity_odd_arity_rejected():
    with pytest.raises(InputError):
        exact_parity(3)


def test_run_query_alg_validates_input_length():
    with pytest.raises(InputError):
        run_query_alg(grover_or(4), "001")


def test_parse_query_algorithm():
    assert parse_query_algorithm("grover-or:8").arity == 8
    assert parse_query_algorithm("exact-parity:4").arity == 4
    with pytest.raises(InputError):
        parse_query_algorithm("shor:15")


def test_decision_tree_eval_and_query_count():
    # depth-2 tree: query bit 0, then bit 1 on the high side only
    t = DecisionTree(0, low=leaf(0), high=DecisionTree(1, low=leaf(0), high=leaf(1)))
    assert t.eval((0, 0)) == 0 and t.eval((1, 1)) == 1
    value, queries = t.eval_with_queries(lambda i: (1, 0)[i])
    assert (value, queries) == (0, 2)
    value, queries = t.eval_with_queries(lambda i: (0, 1)[i])
    assert (value, queries) == (0, 1)


def test_optimal_depths_for_standard_functions():
    assert dt_optimal_depth(or_fn(3)) == 3
    assert dt_optimal_depth(and_fn(4)) == 4
    assert dt_optimal_depth(xor_fn(5)) == 5
    const = BoolFunction("const1:3", 3, lambda z: 1)
    assert dt_optimal_depth(const) == 0
    proj = BoolFunction("bit1:3", 3, lambda z: z[1])
    assert dt_optimal_depth(proj) == 1


def test_optimal_tree_computes_the_function():
    f = parse_function("or:4")
    t = build_optimal_dt(f)
    assert t.depth == 4
    for z in bitstrings(4):
        zb = tuple(int(c) for c in z)
        assert t.eval(zb) == f(zb)


def test_dt_arity_cap_refuses_large_instances():
    big = BoolFunction("or:12", 12, lambda z: int(any(z)))
    assert DT_ARITY_CAP < 12
    with pytest.raises(RefusalError):
        build_optimal_dt(big)


def test_algorithm_layout_and_initial_state():
    alg = grover_or(4)
    psi = alg.initial_state()
    assert psi.shape == (alg.layout.dim,)
    assert abs(np.linalg.norm(psi) - 1) < 1e-12


# --- validation of hand-built algorithms --------------------------------------

TOY = RegisterLayout(2, 1)


def toy_algorithm(*segments):
    return QueryAlgorithm("toy", 2, TOY, tuple(segments), 1 / 3)


def go_to(seg_id, reset=None):
    return lambda label: Decision("continue", seg_id, reset)


def halt(label):
    return REJECT


@pytest.mark.parametrize("segments", [1, 2])
def test_continue_reset_must_be_a_basis_transposition(segments):
    meas = CompleteMeasurement(TOY.dim)
    idle = IdentityOp(TOY.dim)
    first = Segment((idle,), meas, go_to(1, DiffusionOp(TOY)))
    rest = [Segment((idle,), meas, halt)] * (segments - 1)
    with pytest.raises(SpecError, match="basis transposition"):
        validate_algorithm(toy_algorithm(first, *rest))
    # the same schedule with a transposition reset is accepted
    if segments == 2:
        fine = Segment((idle,), meas, go_to(1, BasisSwapOp(TOY.dim, 1, 0)))
        validate_algorithm(toy_algorithm(fine, *rest))


@pytest.mark.parametrize("target", [0, 2])
def test_run_query_alg_refuses_a_continue_that_is_not_forward(target):
    meas = CompleteMeasurement(TOY.dim)
    idle = IdentityOp(TOY.dim)
    alg = toy_algorithm(Segment((idle,), meas, go_to(target)),
                        Segment((idle,), meas, halt))
    with pytest.raises(SpecError):
        run_query_alg(alg, "00")


def test_non_unitary_operator_in_a_later_segment_is_caught():
    meas = CompleteMeasurement(TOY.dim)
    idle = IdentityOp(TOY.dim)
    bad = DenseOp(2 * np.eye(TOY.dim))
    alg = toy_algorithm(Segment((idle,), meas, go_to(1)),
                        Segment((idle, bad), meas, halt))
    with pytest.raises(SpecError, match="unitary"):
        validate_algorithm(alg)


def test_non_unitary_look_alike_is_caught():
    # OnAnswerOp.describe() omits the matrix, so a check keyed on the
    # description would take the second operator for the first
    meas = CompleteMeasurement(TOY.dim)
    good = OnAnswerOp(TOY, MINUS_PREP, "answer")
    bad = OnAnswerOp(TOY, 2 * MINUS_PREP, "answer")
    assert good.describe() == bad.describe()
    alg = toy_algorithm(Segment((good,), meas, go_to(1)),
                        Segment((good, bad), meas, halt))
    with pytest.raises(SpecError, match="unitary"):
        validate_algorithm(alg)


def test_non_unitary_operator_shared_across_segments_is_caught():
    meas = CompleteMeasurement(TOY.dim)
    bad = DenseOp(np.diag([1, 1, 1, 0.5]))
    alg = toy_algorithm(Segment((bad,), meas, go_to(1)),
                        Segment((bad, bad), meas, halt))
    with pytest.raises(SpecError, match="unitary"):
        validate_algorithm(alg)


@pytest.mark.parametrize("n", [256, 1024])   # register dims 512 and 2048
def test_non_unitary_operator_spliced_into_grover_is_caught_at_any_dimension(n):
    alg = grover_or(n)
    bad = OnAnswerOp(alg.layout, np.array([[1, 0], [0, 0.5]]), "damp")
    seg = alg.segments[1]
    spliced = dataclasses.replace(seg, unitaries=seg.unitaries[:1] + (bad,) + seg.unitaries[1:])
    alg = dataclasses.replace(alg, segments=alg.segments[:1] + (spliced,) + alg.segments[2:])
    with pytest.raises(SpecError, match="segment 1 unitary 1: .*unitary"):
        validate_algorithm(alg)


def test_continue_errors_name_the_segment_and_the_label():
    meas = CompleteMeasurement(TOY.dim)
    idle = IdentityOp(TOY.dim)
    backward = toy_algorithm(Segment((idle,), meas, halt),
                             Segment((idle,), meas, go_to(1)))
    with pytest.raises(SpecError, match="segment 1 outcome 0: continue must target"):
        validate_algorithm(backward)
    odd = toy_algorithm(Segment((idle,), meas, lambda label: Decision("maybe")))
    with pytest.raises(SpecError, match="segment 0 outcome 0: unknown decision 'maybe'"):
        validate_algorithm(odd)


def test_validation_checks_each_distinct_operator_once(monkeypatch):
    checked = []
    real = twoway.qquery.check_unitary

    def counting(op):
        checked.append(op)
        real(op)

    monkeypatch.setattr(twoway.qquery, "check_unitary", counting)
    for n in (256, 1024):          # dim 512 and 2048: no dimension is skipped
        checked.clear()
        alg = grover_or(n)
        validate_algorithm(alg)
        distinct = {id(u) for seg in alg.segments for u in seg.unitaries}
        assert len(checked) <= 5
        assert {id(op) for op in checked} == distinct
