"""Operator algebra: unitarity, dense agreement, measurement semantics."""

import numpy as np
import pytest

from twoway.errors import SpecError
from twoway.ops import (
    BRANCH_PRUNE,
    UNITARY_ATOL,
    BasisSwapOp,
    CacheFlipOp,
    CompleteMeasurement,
    ComposeOp,
    DenseOp,
    DiffusionOp,
    GadgetFlipOp,
    IdentityOp,
    IndexPairHOp,
    IndexPermOp,
    LiftedOp,
    Measurement,
    MINUS_PREP,
    OnAnswerOp,
    PrepReflectOp,
    RegisterLayout,
    UNMINUS,
    Op,
    check_norm,
    check_unitary,
    dense_deviation,
    minus_prep_op,
    unminus_op,
)


def rand_state(dim, seed=0):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return psi / np.linalg.norm(psi)


def test_minus_prep_and_unminus_are_inverse():
    assert np.allclose(UNMINUS @ MINUS_PREP, np.eye(2), atol=1e-12)
    layout = RegisterLayout(2, 1)
    psi = rand_state(layout.dim, 3)
    out = unminus_op(layout).apply(minus_prep_op(layout).apply(psi.copy()))
    assert np.allclose(out, psi, atol=1e-12)


@pytest.mark.parametrize("op_builder", [
    lambda: DenseOp(np.array([[1, 1], [1, -1]]) / np.sqrt(2), "H"),
    lambda: IdentityOp(6),
    lambda: DiffusionOp(RegisterLayout(4, 1)),
    lambda: PrepReflectOp(RegisterLayout(4, 1)),
    lambda: IndexPairHOp(RegisterLayout(4, 1), 0, 1),
    lambda: IndexPermOp(RegisterLayout(4, 1), [(0, 1), (2, 3)]),
    lambda: BasisSwapOp(8, 0, 2),
    lambda: minus_prep_op(RegisterLayout(2, 1)),
])
def test_standard_ops_are_unitary(op_builder):
    check_unitary(op_builder())


def _tampered_prep(scale):
    op = PrepReflectOp(RegisterLayout(4, 1))
    op.w = op.w * scale
    return op


L4 = RegisterLayout(4, 1)
BAD_ANSWER = OnAnswerOp(L4, 1.01 * MINUS_PREP, "scaled")

# (operator, unitary?): every op class, and non-unitary look-alikes
CERTIFIED = [
    (DenseOp(np.array([[1, 1], [1, -1]]) / np.sqrt(2), "H"), True),
    (DenseOp(1.01 * np.array([[1, 1], [1, -1]]) / np.sqrt(2), "scaled H"), False),
    (DenseOp(np.diag([1, 1, 1, 0.5])), False),
    (IdentityOp(6), True),
    (DiffusionOp(L4), True),
    (DiffusionOp(RegisterLayout(3, 2)), True),
    (PrepReflectOp(L4, 2), True),
    (PrepReflectOp(RegisterLayout(1, 1)), True),
    (_tampered_prep(1.01), False),
    (_tampered_prep(0.5), False),
    (IndexPairHOp(L4, 0, 3), True),
    (IndexPermOp(L4, [(0, 1), (2, 3)]), True),
    (BasisSwapOp(8, 0, 2), True),
    (BasisSwapOp(8, 5, 5), True),
    (minus_prep_op(L4), True),
    (BAD_ANSWER, False),
    (OnAnswerOp(L4, np.diag([1, 0.5]), "damp"), False),
    (ComposeOp([DiffusionOp(L4), unminus_op(L4)]), True),
    (ComposeOp([DiffusionOp(L4), BAD_ANSWER]), False),
    (LiftedOp(PrepReflectOp(L4, 1), 3), True),
    (LiftedOp(BAD_ANSWER, 2), False),
    (CacheFlipOp(cache_dim=4, p_pad=3, d_w=2, block=1, mask=3), True),
    (GadgetFlipOp(cache_dim=4, p_pad=2, d_w=1, block=1, flips=(0, 3)), True),
]


@pytest.mark.parametrize("op,unitary", CERTIFIED,
                         ids=[f"{type(op).__name__}-{i}" for i, (op, _) in enumerate(CERTIFIED)])
def test_certificate_bounds_the_dense_deviation(op, unitary):
    # certify() bounds the spectral norm, which bounds the max norm of the
    # dense check; the slack only covers the dense oracle's own roundoff
    dense = dense_deviation(op)
    assert op.certify() + 1e-12 >= dense
    if unitary:
        check_unitary(op)
    else:
        assert dense > UNITARY_ATOL
        with pytest.raises(SpecError, match="unitary"):
            check_unitary(op)


@pytest.mark.parametrize("op", [
    IndexPermOp(L4, [(0, 4)]),
    BasisSwapOp(8, 0, 8),
    IndexPairHOp(L4, 1, 1),
    IndexPairHOp(L4, 0, 4),
    CacheFlipOp(cache_dim=4, p_pad=3, d_w=1, block=3, mask=1),
    CacheFlipOp(cache_dim=4, p_pad=3, d_w=1, block=0, mask=4),
    GadgetFlipOp(cache_dim=2, p_pad=2, d_w=1, block=0, flips=(2,)),
    _tampered_prep(1j),
])
def test_certificates_refuse_malformed_parameters(op):
    with pytest.raises(SpecError):
        check_unitary(op)


def test_an_op_without_a_certificate_is_refused():
    class Opaque(Op):
        dim = 2

        def apply(self, psi):
            return psi

    with pytest.raises(SpecError, match="no unitarity certificate"):
        check_unitary(Opaque())


def test_compose_applies_right_to_left():
    a = DenseOp(np.array([[0, 1], [1, 0]]), "X")
    b = DenseOp(np.array([[1, 0], [0, -1]]), "Z")
    zx = ComposeOp([a, b])      # X first, then Z
    psi = np.array([1.0, 0.0], dtype=np.complex128)
    out = zx.apply(psi.copy())
    assert np.allclose(out, [0, -1])


def test_diffusion_matches_dense_formula():
    layout = RegisterLayout(4, 1)
    op = DiffusionOp(layout)
    dense = op.to_dense()
    # 2|u><u| - I on the index register, identity on answer/work
    block = 2 * np.full((4, 4), 1 / 4) - np.eye(4)
    expect = np.kron(block, np.eye(2))
    assert np.allclose(dense, expect, atol=1e-12)


def test_on_index_and_on_answer_target_the_right_registers():
    layout = RegisterLayout(2, 1)
    x = np.array([[0, 1], [1, 0]])
    psi = np.zeros(layout.dim, dtype=np.complex128)
    psi[0] = 1.0                      # (index 0, answer 0)
    out = IndexPermOp(layout, [(0, 1)]).apply(psi.copy())
    assert abs(out[2] - 1) < 1e-12    # index flipped, answer kept
    out = OnAnswerOp(layout, x, "X").apply(psi.copy())
    assert abs(out[1] - 1) < 1e-12    # answer flipped, index kept


def test_lifted_op_is_blockwise_and_bit_identical():
    inner = DiffusionOp(RegisterLayout(4, 1))
    lifted = LiftedOp(inner, 3)
    psi = rand_state(lifted.dim, 5)
    blocks = psi.reshape(3, inner.dim).copy()
    out = lifted.apply(psi.copy()).reshape(3, inner.dim)
    for b in range(3):
        ref = inner.apply(blocks[b].copy())
        assert np.array_equal(out[b], ref)     # identical floats, not approx


L8W2 = RegisterLayout(8, 2)
_U8 = np.linalg.qr(np.random.default_rng(8).standard_normal((8, 8))
                   + 1j * np.random.default_rng(9).standard_normal((8, 8)))[0]

# one instance of every operator class, on registers wide enough that the
# matrix products go through the same library calls a compiled run makes
EVERY_OP = [
    DenseOp(_U8, "random"),
    IdentityOp(L8W2.dim),
    ComposeOp([DiffusionOp(L8W2), IndexPairHOp(L8W2, 2, 5), unminus_op(L8W2)]),
    OnAnswerOp(L8W2, MINUS_PREP, "minus-prep"),
    DiffusionOp(L8W2),
    PrepReflectOp(L8W2, 3),
    IndexPairHOp(L8W2, 1, 6),
    IndexPermOp(L8W2, [(0, 7), (2, 3)]),
    BasisSwapOp(L8W2.dim, 4, 29),
    LiftedOp(PrepReflectOp(RegisterLayout(4, 1), 1), 4),
    CacheFlipOp(cache_dim=4, p_pad=3, d_w=2, block=1, mask=3),
    GadgetFlipOp(cache_dim=4, p_pad=2, d_w=1, block=1, flips=(0, 3)),
]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("batch", [(), (1,), (3,), (2, 3)])
@pytest.mark.parametrize("op", EVERY_OP, ids=[type(op).__name__ for op in EVERY_OP])
def test_batched_apply_is_bitwise_the_one_vector_apply(op, batch):
    # a stack of states goes through one call, and every row must carry
    # exactly the bits the row gets on its own: the branch engine stacks
    # its branches while the step-level runners apply one vector at a time
    rows = int(np.prod(batch))
    stack = np.stack([rand_state(op.dim, 40 + r) for r in range(rows)])
    got = op.apply(stack.reshape(*batch, op.dim).copy())
    assert got.shape == (*batch, op.dim)
    got = got.reshape(rows, op.dim)
    for r in range(rows):
        assert np.array_equal(_bits(got[r]), _bits(op.apply(stack[r].copy())))


@pytest.mark.parametrize("blocks", [1, 2, 4, 16])
@pytest.mark.parametrize("inner", EVERY_OP[:9], ids=[type(op).__name__ for op in EVERY_OP[:9]])
def test_lifted_apply_is_bitwise_a_block_loop(inner, blocks):
    lifted = LiftedOp(inner, blocks)
    for batch in ((), (3,)):
        rows = int(np.prod(batch))
        stack = np.stack([rand_state(lifted.dim, 60 + r) for r in range(rows)])
        want = stack.copy()
        for r in range(rows):
            for b in range(blocks):
                cut = slice(b * inner.dim, (b + 1) * inner.dim)
                want[r, cut] = inner.apply(stack[r, cut].copy())
        got = lifted.apply(stack.reshape(*batch, lifted.dim).copy())
        assert np.array_equal(_bits(got.reshape(rows, -1)), _bits(want))


def test_cache_flip_is_self_inverse_permutation():
    op = CacheFlipOp(cache_dim=4, p_pad=3, d_w=2, block=1, mask=2)
    check_unitary(op)
    psi = rand_state(op.dim, 7)
    once = op.apply(psi.copy())
    assert not np.array_equal(once, psi)
    twice = op.apply(once.copy())
    assert np.array_equal(twice, psi)


def test_cache_flip_touches_only_its_block():
    op = CacheFlipOp(cache_dim=2, p_pad=3, d_w=1, block=2, mask=1)
    psi = rand_state(op.dim, 11)
    out = op.apply(psi.copy()).reshape(2, 3, 2, 1)
    ref = psi.reshape(2, 3, 2, 1)
    assert np.array_equal(out[:, :2], ref[:, :2])
    assert np.array_equal(out[0, 2], ref[1, 2])


def test_gadget_flip_swaps_answers_on_selected_cache_rows():
    op = GadgetFlipOp(cache_dim=2, p_pad=2, d_w=1, block=0, flips=(1,))
    check_unitary(op)
    psi = rand_state(op.dim, 13)
    out = op.apply(psi.copy()).reshape(2, 2, 2, 1)
    ref = psi.reshape(2, 2, 2, 1)
    assert np.array_equal(out[0], ref[0])                  # cache row 0 untouched
    assert np.array_equal(out[1, 0, 0], ref[1, 0, 1])      # answers swapped
    assert np.array_equal(out[1, 0, 1], ref[1, 0, 0])
    assert np.array_equal(out[1, 1], ref[1, 1])            # other block untouched


def test_gadget_flip_empty_selection_is_identity():
    op = GadgetFlipOp(2, 2, 1, 0, ())
    psi = rand_state(op.dim, 17)
    assert np.array_equal(op.apply(psi.copy()), psi)


def test_describe_round_trip_fields():
    d = CacheFlipOp(2, 4, 1, 3, 1).describe()
    assert d["op"] == "cache-flip" and d["block"] == 3 and d["mask"] == 1
    d = GadgetFlipOp(2, 4, 1, 0, (1,)).describe()
    assert d["op"] == "controlled-flip" and d["flips"] == [1]
    d = LiftedOp(IdentityOp(2), 5).describe()
    assert d["op"] == "lifted" and d["blocks"] == 5


def test_measurement_requires_disjoint_cover():
    Measurement(3, {"a": (0, 1), "b": (2,)}, "ok")
    with pytest.raises(SpecError):
        Measurement(3, {"a": (0, 1), "b": (1, 2)}, "overlap")
    with pytest.raises(SpecError):
        Measurement(3, {"a": (0,), "b": (2,)}, "gap")
    with pytest.raises(SpecError, match="outcome 'a' repeats a basis index"):
        Measurement(2, {"a": (0, 0), "b": (1,)}, "repeat")


def test_measurement_branches_collapse_and_prune():
    m = Measurement(2, {"a": (0,), "b": (1,)}, "read")
    psi = np.array([np.sqrt(0.75), np.sqrt(0.25)], dtype=np.complex128)
    branches = dict()
    for label, p, collapsed in m.branches(psi):
        branches[label] = (p, collapsed)
        assert abs(np.linalg.norm(collapsed) - 1) < 1e-12
    assert abs(branches["a"][0] - 0.75) < 1e-12
    assert abs(branches["b"][0] - 0.25) < 1e-12
    # zero-amplitude branch vanishes
    psi = np.array([1.0, 0.0], dtype=np.complex128)
    assert [lab for lab, _, _ in m.branches(psi)] == ["a"]


def test_branch_prune_threshold():
    m = Measurement(2, {"a": (0,), "b": (1,)}, "read")
    eps = np.sqrt(BRANCH_PRUNE / 10)
    psi = np.array([np.sqrt(1 - eps**2), eps], dtype=np.complex128)
    assert [lab for lab, _, _ in m.branches(psi)] == ["a"]


def test_complete_measurement_labels_are_basis_indices():
    m = CompleteMeasurement(4)
    psi = np.zeros(4, dtype=np.complex128)
    psi[1] = psi[3] = 1 / np.sqrt(2)
    got = {lab: p for lab, p, _ in m.branches(psi)}
    assert set(got) == {1, 3}
    assert abs(got[1] - 0.5) < 1e-12


def test_check_norm_flags_drift():
    check_norm(np.array([1.0 + 0j, 0.0]))
    with pytest.raises(SpecError):
        check_norm(np.array([1.1 + 0j, 0.0]), "drift")
