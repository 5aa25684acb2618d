"""Query algorithms: acceptance probabilities, call counts, decision trees."""

import dataclasses
import itertools

import numpy as np
import pytest

import twoway.qquery
from reference import sequential_accept
from twoway.boolfn import BoolFunction, and_fn, or_fn, parse_function, xor_fn
from twoway.errors import InputError, RefusalError, SpecError
from twoway.kernels import oracle_masks
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
    ACCEPT,
    DT_ARITY_CAP,
    KIND_CONTINUE,
    KIND_REJECT,
    REJECT,
    Decision,
    DecisionRows,
    DecisionTree,
    QueryAlgorithm,
    Segment,
    build_optimal_dt,
    dt_optimal_depth,
    exact_parity,
    grover_or,
    leaf,
    parse_query_algorithm,
    per_outcome,
    run_query_alg,
    run_segments,
    run_query_alg_lanes,
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


@pytest.mark.parametrize("words", [np.zeros((2, 3), dtype=np.uint8), np.zeros(4, dtype=np.uint8),
                                   np.array([[0, 1, 2, 0]], dtype=np.uint8),
                                   np.array([[0, -1, 0, 0]]), np.array([[0, 0.5, 0, 0]]),
                                   np.ones((1, 4))])
def test_run_query_alg_lanes_refuses_anything_but_a_bit_matrix(words):
    with pytest.raises(InputError):
        run_query_alg_lanes(grover_or(4), words)


def test_no_words_give_no_results():
    assert run_query_alg_lanes(grover_or(4), np.zeros((0, 4), dtype=np.uint8)) == []


def test_parse_query_algorithm():
    assert parse_query_algorithm("grover-or:8").arity == 8
    assert parse_query_algorithm("exact-parity:4").arity == 4
    with pytest.raises(InputError):
        parse_query_algorithm("shor:15")


def test_decision_tree_eval_and_query_count():
    # depth-2 tree: query bit 0, then bit 1 on the high side only
    t = DecisionTree(0, low=leaf(0), high=DecisionTree(1, low=leaf(0), high=leaf(1)))
    assert t.eval_with_queries((0, 0).__getitem__) == (0, 1)
    assert t.eval_with_queries((1, 1).__getitem__) == (1, 2)
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
        value, queries = t.eval_with_queries(zb.__getitem__)
        assert value == f(zb)
        assert queries <= t.depth


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
    return per_outcome(lambda label: Decision("continue", seg_id, reset))


halt = per_outcome(lambda label: REJECT)


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
    odd = toy_algorithm(Segment((idle,), meas, per_outcome(lambda label: Decision("maybe"))))
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


def fixed_rows(kind, next_segment=None, swap=None):
    """A Segment.decide that returns the same hand-built table whatever
    the labels."""
    kind = np.array(kind, dtype=np.int8)
    if next_segment is None:
        next_segment = [-1] * len(kind)
    if swap is None:
        swap = [(-1, -1)] * len(kind)
    rows = DecisionRows(kind, np.array(next_segment, dtype=np.int64),
                        np.array(swap, dtype=np.int64).reshape(-1, 2))
    return lambda labels: rows


R, C = KIND_REJECT, KIND_CONTINUE


@pytest.mark.parametrize("decide, match", [
    (fixed_rows([R, R, R]), "segment 1 outcome 3: decision rows must be integer arrays"),
    (fixed_rows([R, 3, R, R]), "segment 1 outcome 1: unknown decision code 3"),
    (fixed_rows([R, -1, R, R]), "segment 1 outcome 1: unknown decision code -1"),
    (fixed_rows([R, R, C, R], [-1, -1, 1, -1]),
     "segment 1 outcome 2: continue must target a strictly later segment, got 1"),
    (fixed_rows([R, C, R, R], [-1, 3, -1, -1]),
     "segment 1 outcome 1: continue must target a strictly later segment, got 3"),
    (fixed_rows([R, R, C, C], [-1, -1, 2, 2], [(-1, -1), (-1, -1), (0, 1), (2, 4)]),
     "segment 1 outcome 3: a reset must be a basis transposition of the register, "
     r"got swap \[2, 4\]"),
    (fixed_rows([C, R, R, R], [2, -1, -1, -1], [(-1, 0), (-1, -1), (-1, -1), (-1, -1)]),
     "segment 1 outcome 0: a reset must be a basis transposition"),
    (fixed_rows([R, R, R, R], swap=[(-1, -1), (-1, -1), (0, 1), (-1, -1)]),
     "segment 1 outcome 2: a halting outcome carries no reset or next segment"),
    (fixed_rows([R, R, R, R], [-1, -1, -1, 2]),
     "segment 1 outcome 3: a halting outcome carries no reset or next segment"),
])
def test_bad_decision_tables_name_the_segment_and_the_label(decide, match):
    meas = CompleteMeasurement(TOY.dim)
    idle = IdentityOp(TOY.dim)
    alg = toy_algorithm(Segment((idle,), meas, go_to(1)),
                        Segment((idle,), meas, decide),
                        Segment((idle,), meas, halt))
    with pytest.raises(SpecError, match=match):
        validate_algorithm(alg)


def test_a_table_with_float_rows_is_refused():
    rows = DecisionRows(np.zeros(4, dtype=np.int8), np.full(4, -1.0),
                        np.full((4, 2), -1, dtype=np.int64))
    meas = CompleteMeasurement(TOY.dim)
    alg = toy_algorithm(Segment((IdentityOp(TOY.dim),), meas, lambda labels: rows))
    with pytest.raises(SpecError, match="segment 0: decision rows must be integer arrays"):
        validate_algorithm(alg)


def per_label_grover_rule(layout, seg_id, is_last):
    """The per-label decision rule grover_or applied before it built its
    rows in closed form: the reference for its tables."""
    canon = layout.flat(0, 0, 0)

    def decide(outcome):
        flat = int(outcome)
        if layout.unpack(flat)[1] == 1:
            return ACCEPT
        if is_last:
            return REJECT
        return Decision("continue", seg_id + 1, BasisSwapOp(layout.dim, flat, canon))

    return decide


@pytest.mark.parametrize("n", [2, 3, 4, 5, 16, 256, 1024])
def test_grover_rows_equal_the_per_label_rule(n):
    alg = grover_or(n)
    last = len(alg.segments) - 1
    for s, (seg, got) in enumerate(zip(alg.segments, validate_algorithm(alg))):
        rule = per_label_grover_rule(alg.layout, s, s == last)
        want = per_outcome(rule)(seg.measurement.labels())
        for name in ("kind", "next_segment", "swap"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (s, name)
        # the rows shared between rounds cannot be written through
        assert not got.kind.flags.writeable and not got.swap.flags.writeable


def test_sums_are_made_left_to_right_in_arrival_order():
    # grover_or(256) merges hundreds of continuing outcomes into each branch,
    # so a sum made pairwise or in another order would show in the last bits
    rng = np.random.default_rng(256)
    alg = grover_or(256)
    for _ in range(3):
        z = "".join(rng.choice(["0", "1"], size=256, p=[0.97, 0.03]))
        assert run_query_alg(alg, z) == sequential_accept(alg, z), z


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_every_word_sums_as_the_sequential_rule(n):
    for builder in (grover_or, exact_parity) if n % 2 == 0 else (grover_or,):
        alg = builder(n)
        for z in bitstrings(n):
            assert run_query_alg(alg, z) == sequential_accept(alg, z), (alg.name, z)


def test_merged_branch_keeps_every_pareto_maximal_history():
    # three paths reach segment 4 as the same basis state with amplitude
    # exactly 1, so they merge into one branch: 0-1-3-4 with 2 calls and 3
    # resets, 0-2-4 with 3 calls and 2 resets, and 0-4 with 2 calls and 1
    # reset, which the first dominates
    layout = RegisterLayout(2, 1)
    dim = layout.dim
    quarter = DenseOp(0.5 * np.array([[1, 1, 1, 1], [1, -1, 1, -1],
                                      [1, 1, -1, -1], [1, -1, -1, 1]]))
    idle = IdentityOp(dim)
    basis = CompleteMeasurement(dim)

    def fork(outcome):
        return [Decision("continue", 1), Decision("continue", 2, BasisSwapOp(dim, 0, 1)),
                Decision("continue", 4, BasisSwapOp(dim, 0, 2)), REJECT][outcome]

    def onward(seg):
        return per_outcome(lambda outcome: Decision(
            "continue", seg, BasisSwapOp(dim, 0, outcome) if outcome else None))

    alg = QueryAlgorithm("pareto", 2, layout, (
        Segment((quarter, idle), basis, per_outcome(fork)),
        Segment((idle,), basis, onward(3)),
        Segment((idle, idle), basis, onward(4)),
        Segment((idle,), basis, onward(4)),
        Segment((quarter, idle), basis,
                per_outcome(lambda outcome: ACCEPT if outcome < 2 else REJECT)),
    ), 1 / 3)
    masks = oracle_masks(np.zeros((1, 2), dtype=np.uint8), layout.index_dim)
    runs = run_segments(alg.tables, alg.initial_state(), masks, layout.work_dim,
                        alg.name, str)
    assert runs.accept.tolist() == [0.375]
    assert runs.halts.tolist() == [5]      # 4 from the one merged branch, 1 in segment 0
    # per reset count, the most calls: the (2, 1) path is kept, and dominated
    accepted, rejected = runs.halted[0].tolist()
    assert accepted == [-1, 2, 3, 2, -1]
    # segment 0's reject has 1 call and no reset
    assert rejected == [1, 2, 3, 2, -1]
    assert runs.ran.tolist() == [[3, 1, 1, 1, 0]]
