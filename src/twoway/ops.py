"""State-vector layouts, structured unitary operators, and measurements.

Quantum states are numpy complex128 vectors. Every operator acts on the
last axis of a (..., dim) array, so a stack of states (one per row) goes
through one call with the same float work per row as one state alone. A
query algorithm's register
layout is (index, answer, workspace) with the index axis outermost inside a
flat vector; a machine built by the compiler prepends a cache register (the
gadget work qubits) as the new outermost axis, so lifting an algorithm
operator to the machine space is a per-block application and stays
numerically identical block by block.

Structured operators are applied analytically (O(changed amplitudes), never
via dense matrices). Every operator certifies its own unitarity from its
parameters: certify() returns an upper bound on the spectral norm of
U^dagger U - I without materializing U, so check_unitary runs at every
dimension. An operator class without a certificate is refused, never
trusted. On small dimensions every operator can still materialize itself
densely (to_dense, dense_deviation): the oracle the certificates are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SpecError

UNITARY_ATOL = 1e-9     # max-norm tolerance for U^dagger U - I
NORM_ATOL = 1e-9        # state-norm drift tolerance
BRANCH_PRUNE = 1e-12    # measurement branches below this probability are dropped
LOST_MASS = 1e-6        # the halting mass a run may lose to pruning
DENSE_CHECK_LIMIT = 512   # largest dimension to_dense() materializes


@dataclass(frozen=True)
class RegisterLayout:
    """Index register of dimension `index_dim`, answer bit, workspace of
    dimension `work_dim`. flat = (i * 2 + b) * work_dim + w."""

    index_dim: int
    work_dim: int = 1

    @property
    def dim(self) -> int:
        return self.index_dim * 2 * self.work_dim

    def flat(self, i: int, b: int, w: int = 0) -> int:
        return (i * 2 + b) * self.work_dim + w

    def unpack(self, flat: int) -> tuple[int, int, int]:
        w = flat % self.work_dim
        rest = flat // self.work_dim
        return rest // 2, rest % 2, w

    def basis_state(self, i: int = 0, b: int = 0, w: int = 0) -> np.ndarray:
        psi = np.zeros(self.dim, dtype=np.complex128)
        psi[self.flat(i, b, w)] = 1.0
        return psi


class Op:
    """Base operator: unitary action on the last axis of a (..., dim)
    array of flat state vectors."""

    dim: int

    def apply(self, psi: np.ndarray) -> np.ndarray:
        """The state(s) after the operator. Some operators (IndexPairHOp,
        IndexPermOp, CacheFlipOp, GadgetFlipOp and a LiftedOp of one) write
        into `psi` and return a view of it, so a caller that keeps `psi`
        passes a copy."""
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        if self.dim > DENSE_CHECK_LIMIT:
            raise SpecError(f"dimension {self.dim} too large to materialize")
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        basis = np.zeros(self.dim, dtype=np.complex128)
        for j in range(self.dim):
            basis[:] = 0.0
            basis[j] = 1.0
            out[:, j] = self.apply(basis.copy())
        return out

    def describe(self) -> dict:
        raise NotImplementedError

    def certify(self) -> float:
        """Upper bound on ||U^dagger U - I||_2, from the operator's
        parameters alone. The spectral norm bounds the max norm, so a
        certificate at most UNITARY_ATOL implies the dense check."""
        raise SpecError(f"{type(self).__name__} has no unitarity certificate")


def check_unitary(op: Op) -> None:
    """Assert op.certify() <= UNITARY_ATOL, at any dimension."""
    dev = op.certify()
    if dev > UNITARY_ATOL:
        raise SpecError(
            f"operator {op.describe()} deviates from unitary by up to {dev:.3e}")


def dense_deviation(op: Op) -> float:
    """||U^dagger U - I||_max of the materialized operator: the test oracle
    for certify() (dim <= DENSE_CHECK_LIMIT)."""
    u = op.to_dense()
    gram = u.conj().T @ u
    gram[np.diag_indices(op.dim)] -= 1.0   # in place: no second dense temporary
    return float(np.abs(gram).max())


def _gram_deviation(matrix: np.ndarray) -> float:
    """||M^dagger M - I||_F, which bounds the spectral norm of the same
    difference. einsum rather than BLAS or LAPACK: a certificate loads no
    library pages the run itself does not need."""
    gram = np.einsum("ki,kj->ij", matrix.conj(), matrix)
    gram[np.diag_indices(len(gram))] -= 1.0
    return float(np.sqrt(np.sum(np.abs(gram) ** 2)))


def _require_indices(op: Op, bound: int, *indices: int) -> None:
    for i in indices:
        if not 0 <= i < bound:
            raise SpecError(f"operator {op.describe()}: index {i} outside [0, {bound})")


class DenseOp(Op):
    def __init__(self, matrix: np.ndarray, name: str = "dense"):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise SpecError("dense operator must be square")
        self.matrix = matrix
        self.dim = matrix.shape[0]
        self.name = name

    def apply(self, psi: np.ndarray) -> np.ndarray:
        # a column per state: each is the matrix-vector product of 1-D psi
        return (self.matrix @ psi[..., None])[..., 0]

    def to_dense(self) -> np.ndarray:
        return self.matrix.copy()

    def certify(self) -> float:
        return _gram_deviation(self.matrix)

    def describe(self) -> dict:
        return {"op": "dense", "matrix": [[ [float(z.real), float(z.imag)] for z in row ] for row in self.matrix]}


class IdentityOp(Op):
    def __init__(self, dim: int):
        self.dim = dim

    def apply(self, psi: np.ndarray) -> np.ndarray:
        return psi

    def certify(self) -> float:
        return 0.0

    def describe(self) -> dict:
        return {"op": "identity", "dim": self.dim}


class ComposeOp(Op):
    """Applies the listed operators in order (ops[0] first)."""

    def __init__(self, ops: list[Op]):
        if not ops:
            raise SpecError("empty composition")
        if len({op.dim for op in ops}) != 1:
            raise SpecError("composition mixes dimensions")
        self.ops = tuple(ops)
        self.dim = ops[0].dim

    def apply(self, psi: np.ndarray) -> np.ndarray:
        for op in self.ops:
            psi = op.apply(psi)
        return psi

    def certify(self) -> float:
        # ||(AB)^dagger AB - I|| <= ||B||^2 eps_A + eps_B <= (1+eps_A)(1+eps_B) - 1
        bound = 1.0
        for op in self.ops:
            bound *= 1.0 + op.certify()
        return bound - 1.0

    def describe(self) -> dict:
        return {"op": "compose", "ops": [op.describe() for op in self.ops]}


class OnAnswerOp(Op):
    """Lift a 2x2 matrix on the answer bit."""

    def __init__(self, layout: RegisterLayout, matrix: np.ndarray, name: str):
        self.layout = layout
        self.matrix = np.asarray(matrix, dtype=np.complex128)
        if self.matrix.shape != (2, 2):
            raise SpecError("answer operator must be 2x2")
        self.dim = layout.dim
        self.name = name

    def apply(self, psi: np.ndarray) -> np.ndarray:
        grid = psi.reshape(*psi.shape[:-1], self.layout.index_dim, 2, self.layout.work_dim)
        out = np.einsum("ab,...ibw->...iaw", self.matrix, grid)
        return out.reshape(psi.shape)

    def certify(self) -> float:
        return _gram_deviation(self.matrix)

    def describe(self) -> dict:
        return {"op": "on-answer", "name": self.name}


class DiffusionOp(Op):
    """Reflection about the uniform index superposition: 2|u><u| - I."""

    def __init__(self, layout: RegisterLayout):
        self.layout = layout
        self.dim = layout.dim

    def apply(self, psi: np.ndarray) -> np.ndarray:
        grid = psi.reshape(*psi.shape[:-1], self.layout.index_dim, 2 * self.layout.work_dim)
        # ndarray.mean's sum and divide, minus its Python wrapper
        mean = np.add.reduce(grid, axis=-2, keepdims=True)
        mean /= self.layout.index_dim
        return (2.0 * mean - grid).reshape(psi.shape)

    def certify(self) -> float:
        return 0.0     # 2|u><u| - I with |u| = 1 by construction

    def describe(self) -> dict:
        return {"op": "diffusion", "n": self.layout.index_dim}


class PrepReflectOp(Op):
    """Real reflection on the index register exchanging e_src with the
    uniform superposition (Householder through their bisector). Self-inverse."""

    def __init__(self, layout: RegisterLayout, src: int = 0):
        self.layout = layout
        self.dim = layout.dim
        self.src = src
        n = layout.index_dim
        u = np.full(n, 1.0 / np.sqrt(n))
        v = -u
        v[src] += 1.0          # v = e_src - u
        norm = np.linalg.norm(v)
        if norm < 1e-15:       # n == 1: e_src already uniform
            self.w = None
        else:
            self.w = v / norm

    def apply(self, psi: np.ndarray) -> np.ndarray:
        if self.w is None:
            return psi
        grid = psi.reshape(*psi.shape[:-1], self.layout.index_dim, 2 * self.layout.work_dim)
        coeff = self.w @ grid
        return (grid - 2.0 * (self.w[:, None] * coeff[..., None, :])).reshape(psi.shape)

    def certify(self) -> float:
        # (I - 2ww^T)^2 = I + 4(|w|^2 - 1) ww^T, of norm 4 | |w|^2 - 1 | |w|^2
        if self.w is None:
            return 0.0
        if np.iscomplexobj(self.w):
            raise SpecError(f"operator {self.describe()}: reflection vector must be real")
        sq = float(self.w @ self.w)
        return 4.0 * abs(sq - 1.0) * sq

    def describe(self) -> dict:
        return {"op": "uniform-prep", "n": self.layout.index_dim, "src": self.src}


class IndexPairHOp(Op):
    """Hadamard mix of two index values a, b (identity elsewhere):
    |a> -> (|a>+|b>)/sqrt2, |b> -> (|a>-|b>)/sqrt2. Self-inverse."""

    # every pair mixes through the same 2x2 block
    _BLOCK_DEVIATION = _gram_deviation(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0))

    def __init__(self, layout: RegisterLayout, a: int, b: int):
        self.layout = layout
        self.dim = layout.dim
        self.a, self.b = a, b

    def apply(self, psi: np.ndarray) -> np.ndarray:
        grid = psi.reshape(-1, self.layout.index_dim, 2 * self.layout.work_dim)
        va = grid[:, self.a].copy()
        vb = grid[:, self.b].copy()
        r = 1.0 / np.sqrt(2.0)
        grid[:, self.a] = r * (va + vb)
        grid[:, self.b] = r * (va - vb)
        return grid.reshape(psi.shape)

    def certify(self) -> float:
        _require_indices(self, self.layout.index_dim, self.a, self.b)
        if self.a == self.b:
            raise SpecError(f"operator {self.describe()} mixes an index with itself")
        return self._BLOCK_DEVIATION

    def describe(self) -> dict:
        return {"op": "index-pair-h", "a": self.a, "b": self.b}


class IndexPermOp(Op):
    """Permutation of index values given as disjoint transpositions."""

    def __init__(self, layout: RegisterLayout, swaps: list[tuple[int, int]]):
        self.layout = layout
        self.dim = layout.dim
        seen: set[int] = set()
        for a, b in swaps:
            if a in seen or b in seen or a == b:
                raise SpecError("swaps must be disjoint transpositions")
            seen.update((a, b))
        self.swaps = tuple(swaps)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        grid = psi.reshape(-1, self.layout.index_dim, 2 * self.layout.work_dim)
        for a, b in self.swaps:
            va = grid[:, a].copy()
            grid[:, a] = grid[:, b]
            grid[:, b] = va
        return grid.reshape(psi.shape)

    def certify(self) -> float:
        for a, b in self.swaps:
            _require_indices(self, self.layout.index_dim, a, b)
        return 0.0     # disjoint transpositions, checked on construction

    def describe(self) -> dict:
        return {"op": "index-swap", "swaps": [list(s) for s in self.swaps]}


class BasisSwapOp(Op):
    """Transposition of two flat basis vectors of the full space."""

    def __init__(self, dim: int, a: int, b: int):
        self.dim = dim
        self.a, self.b = a, b

    def apply(self, psi: np.ndarray) -> np.ndarray:
        if self.a != self.b:
            va = psi[..., self.a].copy()
            psi[..., self.a] = psi[..., self.b]
            psi[..., self.b] = va
        return psi

    def certify(self) -> float:
        _require_indices(self, self.dim, self.a, self.b)
        return 0.0

    def describe(self) -> dict:
        return {"op": "basis-swap", "a": self.a, "b": self.b}


class LiftedOp(Op):
    """op (x) I on a prepended outermost register: apply per contiguous block.

    Block b of the lifted space is exactly the original space, and the
    blocks go through op as one more batch axis, so the float work inside
    each block is identical to applying `op` directly.
    """

    def __init__(self, op: Op, blocks: int):
        self.op = op
        self.blocks = blocks
        self.dim = op.dim * blocks

    def apply(self, psi: np.ndarray) -> np.ndarray:
        blocks = psi.reshape(*psi.shape[:-1], self.blocks, self.op.dim)
        return self.op.apply(blocks).reshape(psi.shape)

    def certify(self) -> float:
        return self.op.certify()     # op (x) I deviates exactly as op does

    def describe(self) -> dict:
        return {"op": "lifted", "blocks": self.blocks, "inner": self.op.describe()}


class CacheFlipOp(Op):
    """XOR a cache-register bit on one index branch. MUTATES psi.

    The vector is laid out as (cache, index, answer, work). For every cache
    value c the (c, block) row is swapped with (c ^ mask, block); other index
    branches are untouched. Self-inverse, so a second application unloads
    what the first loaded.
    """

    def __init__(self, cache_dim: int, p_pad: int, d_w: int, block: int, mask: int):
        self.cache_dim = cache_dim
        self.p_pad = p_pad
        self.d_w = d_w
        self.block = block
        self.mask = mask
        self.dim = cache_dim * p_pad * 2 * d_w
        self._perm = np.arange(cache_dim) ^ mask

    def apply(self, psi: np.ndarray) -> np.ndarray:
        view = psi.reshape(*psi.shape[:-1], self.cache_dim, self.p_pad, 2, self.d_w)
        view[..., self.block, :, :] = view[..., self._perm, self.block, :, :]
        return view.reshape(psi.shape)

    def certify(self) -> float:
        _require_indices(self, self.p_pad, self.block)
        # XOR with a mask is injective, so in range means a permutation
        _require_indices(self, self.cache_dim, *self._perm.tolist())
        return 0.0

    def describe(self) -> dict:
        return {
            "op": "cache-flip", "cache_dim": self.cache_dim, "p_pad": self.p_pad,
            "d_w": self.d_w, "block": self.block, "mask": self.mask,
        }


class GadgetFlipOp(Op):
    """Controlled answer flip on one index branch. MUTATES psi.

    Swaps answer 0 <-> 1 on (c, block) rows for every cache value c in
    `flips`: the gadget value of (cache contents, remembered y block) decides
    which branches get the oracle flip.
    """

    def __init__(self, cache_dim: int, p_pad: int, d_w: int, block: int,
                 flips: tuple[int, ...]):
        self.cache_dim = cache_dim
        self.p_pad = p_pad
        self.d_w = d_w
        self.block = block
        self.flips = tuple(flips)
        self.dim = cache_dim * p_pad * 2 * d_w
        self._sel = np.array(self.flips, dtype=np.intp)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        if not self.flips:
            return psi
        view = psi.reshape(*psi.shape[:-1], self.cache_dim, self.p_pad, 2, self.d_w)
        rows = view[..., self._sel, self.block, :, :]
        view[..., self._sel, self.block, :, :] = rows[..., ::-1, :]
        return view.reshape(psi.shape)

    def certify(self) -> float:
        _require_indices(self, self.p_pad, self.block)
        _require_indices(self, self.cache_dim, *self.flips)
        return 0.0     # swaps answers 0 and 1 on every listed row

    def describe(self) -> dict:
        return {
            "op": "controlled-flip", "cache_dim": self.cache_dim,
            "p_pad": self.p_pad, "d_w": self.d_w, "block": self.block,
            "flips": list(self.flips),
        }


# --- answer-bit constants ----------------------------------------------------

_R = 1.0 / np.sqrt(2.0)
MINUS_PREP = np.array([[_R, _R], [-_R, _R]])   # |0> -> |->  (X then H)
UNMINUS = np.array([[_R, -_R], [_R, _R]])      # |-> -> |0>  (H then X)


def minus_prep_op(layout: RegisterLayout) -> Op:
    return OnAnswerOp(layout, MINUS_PREP, "minus-prep")


def unminus_op(layout: RegisterLayout) -> Op:
    return OnAnswerOp(layout, UNMINUS, "unminus")


# --- measurements ------------------------------------------------------------


class Measurement:
    """Orthogonal measurement given as a partition of the computational basis.

    outcomes maps a label to a sorted array of flat basis indices; the groups
    must be disjoint and cover the space (projectors are then automatically
    idempotent, pairwise orthogonal, and sum to the identity).

    blocks > 1 says every group is that many equal runs of indices, one per
    block of a lifted register: an outcome's probability is then the sum of
    each run's own sum, so with weight in the first block alone it is
    bitwise the unlifted measurement's.
    """

    def __init__(self, dim: int, outcomes: dict[object, np.ndarray], name: str = "basis",
                 blocks: int = 1):
        self.dim = dim
        self.name = name
        self.blocks = blocks
        self.outcomes = {
            label: np.asarray(idx, dtype=np.int64) for label, idx in outcomes.items()
        }
        self.validate()

    def validate(self) -> None:
        seen = np.zeros(self.dim, dtype=bool)
        for label, idx in self.outcomes.items():
            if idx.size and (idx.min() < 0 or idx.max() >= self.dim):
                raise SpecError(f"outcome {label!r} indexes outside the space")
            ordered = np.sort(idx)        # np.unique would import numpy.ma
            if (ordered[1:] == ordered[:-1]).any():
                raise SpecError(f"outcome {label!r} repeats a basis index")
            if seen[idx].any():
                raise SpecError(f"outcome {label!r} overlaps another projector")
            seen[idx] = True
        if not seen.all():
            raise SpecError("projectors do not sum to the identity")

    def labels(self) -> list:
        """Labels whose outcome group is non-empty, in outcome order: the
        outcomes a state can ever produce."""
        return [label for label, idx in self.outcomes.items() if idx.size]

    def branches(self, psi: np.ndarray):
        """Yield (label, probability, collapsed renormalized state) for every
        outcome with probability above the pruning threshold."""
        weights = np.abs(psi) ** 2
        for label, idx in self.outcomes.items():
            w = weights[idx]
            p = float(w.sum() if self.blocks == 1
                      else sum(map(np.ndarray.sum, w.reshape(self.blocks, -1))))
            if p <= BRANCH_PRUNE:
                continue
            collapsed = np.zeros_like(psi)
            collapsed[idx] = psi[idx] / np.sqrt(p)
            yield label, p, collapsed

    def describe(self) -> dict:
        return {
            "measure": self.name,
            "outcomes": {str(k): [int(i) for i in v] for k, v in self.outcomes.items()},
        }


class CompleteMeasurement(Measurement):
    """Complete computational-basis measurement: one outcome per basis index."""

    def __init__(self, dim: int):
        self.dim = dim
        self.name = "complete"
        self.outcomes = None  # generated lazily; validation is structural

    def validate(self) -> None:
        pass

    def labels(self) -> list:
        return list(range(self.dim))

    def branches(self, psi: np.ndarray):
        weights = np.abs(psi) ** 2
        for flat in np.nonzero(weights > BRANCH_PRUNE)[0]:
            p = float(weights[flat])
            collapsed = np.zeros_like(psi)
            collapsed[flat] = psi[flat] / np.sqrt(p)
            yield int(flat), p, collapsed

    def describe(self) -> dict:
        return {"measure": "complete", "dim": self.dim}


def check_lost_mass(total: float, where: Callable[[], str]) -> None:
    """Raise when a run's terminal branch weights miss 1 by more than the
    LOST_MASS budget that pruning at BRANCH_PRUNE may spend; where() names
    the run, and is called only then."""
    if abs(total - 1.0) > LOST_MASS:
        raise SpecError(f"{where()}: terminal branch weights sum to {total}, "
                        "lost probability mass exceeds the pruning budget")


def check_norm(psi: np.ndarray, where: str = "") -> None:
    drift = abs(float(np.vdot(psi, psi).real) - 1.0)
    if drift > NORM_ATOL:
        raise SpecError(f"state norm drifted by {drift:.3e} {where}".rstrip())
