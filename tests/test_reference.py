"""The branch engine against an independent density-matrix reference.

run_query_alg and run_compiled share one branch engine, so comparing them
checks the engine only against itself. tests/reference.py evolves one
unnormalised density matrix per segment instead, with no pruning, merging
or renormalisation; the engine prunes outcomes of weight at most 1e-12,
which bounds the gap well inside 1e-10 on these sizes.
"""

import itertools

import numpy as np
import pytest

from reference import reference_accept
from twoway.boolfn import and_gadget, ip_gadget
from twoway.compiler import compile_query_to_qcfa, run_compiled
from twoway.ops import (
    BasisSwapOp,
    CompleteMeasurement,
    DenseOp,
    IndexPairHOp,
    Measurement,
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

GAP = 1e-10


def words(n):
    return ["".join(w) for w in itertools.product("01", repeat=n)]


CASES = [(grover_or, n) for n in range(2, 7)] + [(exact_parity, n) for n in (2, 4, 6)]


@pytest.mark.parametrize("builder,n", CASES, ids=[f"{b.__name__}-{n}" for b, n in CASES])
def test_engine_matches_density_matrix_reference(builder, n):
    alg = builder(n)
    for z in words(n):
        assert abs(run_query_alg(alg, z) - reference_accept(alg, z)) <= GAP, z


def test_compiled_engine_matches_reference_through_the_gadget():
    # grover_or(2) lifted by the inner-product gadget on 2-bit blocks: every
    # n=4 pair, against the reference on the gadget's 2-bit word
    alg, g, n = grover_or(2), ip_gadget(2), 4
    rep = compile_query_to_qcfa(alg, g, n)
    want = {z: reference_accept(alg, z) for z in words(2)}
    for x in words(n):
        for y in words(n):
            z = "".join(str(g(x[i:i + 2], y[i:i + 2])) for i in range(0, n, 2))
            assert abs(run_compiled(rep, x, y).accept_probability - want[z]) <= GAP, (x, y)


def diamond() -> QueryAlgorithm:
    """Two paths that meet again in segment 3 with the same support but
    opposite relative phases: (|0> + |2>)/sqrt2 from segment 1 and
    (|0> - |2>)/sqrt2 from segment 2. Segment 3 sends the first to outcome
    0 (accept) and the second to outcome 2 (reject), so the two must stay
    separate branches; merging states by their support alone accepts
    every input."""
    layout = RegisterLayout(2, 1)
    dim = layout.dim
    mix = IndexPairHOp(layout, 0, 1)
    mix_flip = DenseOp(np.diag([1, 1, -1, -1]) @ mix.to_dense())
    basis = CompleteMeasurement(dim)
    halves = Measurement(dim, {"x": np.array([0, 2]), "y": np.array([1, 3])})

    def fork(outcome):
        # every outcome resets to basis 0: even ones go to segment 1, odd to 2
        return Decision("continue", 1 + outcome % 2,
                        BasisSwapOp(dim, outcome, 0) if outcome else None)

    def join(label):
        return Decision("continue", 3) if label == "x" else REJECT

    return QueryAlgorithm("diamond", 2, layout, (
        Segment((mix, mix), basis, per_outcome(fork)),
        Segment((mix,), halves, per_outcome(join)),
        Segment((mix_flip,), halves, per_outcome(join)),
        Segment((mix,), basis, per_outcome(lambda outcome: ACCEPT if outcome == 0 else REJECT)),
    ), 1 / 3)


def test_branches_with_equal_support_but_different_phases_stay_apart():
    alg = diamond()
    rep = compile_query_to_qcfa(alg, and_gadget(), 2)
    seen = set()
    for z in words(2):
        want = reference_accept(alg, z)
        assert abs(run_query_alg(alg, z) - want) <= GAP, z
        assert abs(run_compiled(rep, z, "11").accept_probability - want) <= GAP, z
        seen.add(round(want, 9))
    assert len(seen) > 1


def test_outcomes_of_partition_and_basis_measurements_meet_in_one_segment():
    # segment 2 gets one-position states from segment 0's basis measurement
    # and two-position ones from segment 1's partition, in one stack
    layout = RegisterLayout(2, 1)
    dim = layout.dim
    mix = IndexPairHOp(layout, 0, 1)
    halves = Measurement(dim, {"x": np.array([0, 2]), "y": np.array([1, 3])})

    def fork(outcome):
        if outcome == 3:
            return REJECT
        return Decision("continue", 1 if outcome == 1 else 2,
                        BasisSwapOp(dim, outcome, 0) if outcome else None)

    alg = QueryAlgorithm("meet", 2, layout, (
        Segment((mix, mix), CompleteMeasurement(dim), per_outcome(fork)),
        Segment((mix,), halves,
                per_outcome(lambda label: Decision("continue", 2) if label == "x" else REJECT)),
        Segment((mix,), CompleteMeasurement(dim),
                per_outcome(lambda outcome: ACCEPT if outcome == 0 else REJECT)),
    ), 1 / 3)
    rep = compile_query_to_qcfa(alg, and_gadget(), 2)
    for z in words(2):
        want = reference_accept(alg, z)
        assert abs(run_query_alg(alg, z) - want) <= GAP, z
        assert abs(run_compiled(rep, z, "11").accept_probability - want) <= GAP, z
