"""Quantum query algorithms over a bit-flip oracle, plus decision trees.

The oracle for an input word z acts on (index, answer, workspace) basis
states as |i, b, w> -> |i, b xor z_i, w>. An algorithm is a schedule of
segments; each segment applies its unitaries with one oracle call between
consecutive ones, then performs an orthogonal measurement. A per-outcome
decision either halts (accept/reject) or continues into a later segment,
optionally applying an outcome-dependent reset first. A reset must be a
basis transposition (`BasisSwapOp`): the state at that point is a known
basis vector, so a transposition suffices to re-enter the next segment from
a canonical state, and the compiled runner relies on resets only moving
amplitudes.

Plain algorithms are a single segment whose decision never continues.

Builders should reuse one operator (and measurement) instance wherever a
schedule repeats it: validation checks unitarity once per distinct object
and the compiler lifts each distinct object once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .boolfn import BoolFunction, as_bits
from .errors import InputError, RefusalError, SpecError
from .ops import (
    BRANCH_PRUNE,
    BasisSwapOp,
    ComposeOp,
    CompleteMeasurement,
    DiffusionOp,
    IdentityOp,
    IndexPairHOp,
    IndexPermOp,
    Measurement,
    Op,
    PrepReflectOp,
    RegisterLayout,
    check_norm,
    check_unitary,
    minus_prep_op,
    unminus_op,
)

DENSE_VALIDATE_DIM = 512  # validate unitarity densely up to this dimension


@dataclass(frozen=True)
class Decision:
    kind: str                      # "accept" | "reject" | "continue"
    next_segment: int = -1
    reset: Op | None = None


ACCEPT = Decision("accept")
REJECT = Decision("reject")


@dataclass(frozen=True)
class Segment:
    unitaries: tuple[Op, ...]      # len(unitaries) = oracle calls + 1
    measurement: Measurement
    decide: Callable[[object], Decision]

    @property
    def calls(self) -> int:
        return len(self.unitaries) - 1


@dataclass(frozen=True)
class QueryAlgorithm:
    name: str
    arity: int                     # declared input bits; layout may pad above
    layout: RegisterLayout
    segments: tuple[Segment, ...]
    declared_error: float
    query_constant: float | None = None
    generator: dict | None = field(default=None, compare=False)

    @property
    def total_calls(self) -> int:
        """Worst-case oracle calls: the all-continue path visits every segment."""
        return sum(seg.calls for seg in self.segments)

    def initial_state(self) -> np.ndarray:
        return self.layout.basis_state(0, 0, 0)


def apply_oracle(layout: RegisterLayout, z: Sequence[int], psi: np.ndarray) -> np.ndarray:
    """One oracle call: flip the answer bit on every index i with z_i = 1.

    z is given on the declared indices; padded index values query fixed 0s.
    """
    grid = psi.reshape(layout.index_dim, 2, layout.work_dim)
    for i, bit in enumerate(z):
        if bit:
            grid[i] = grid[i, ::-1, :]
    return grid.reshape(-1)


def validate_algorithm(alg: QueryAlgorithm) -> None:
    """Structural checks: unitary operators (densely verified on small
    dimensions, once per distinct operator object), measurement partitions,
    a forward-only control schedule, and basis-transposition resets."""
    if alg.arity < 1 or alg.layout.index_dim < alg.arity:
        raise SpecError("layout narrower than declared arity")
    dim = alg.layout.dim
    # keyed on identity, not describe(): some descriptions omit the matrix
    checked: set[int] = set()
    for s, seg in enumerate(alg.segments):
        if len(seg.unitaries) < 1:
            raise SpecError("segment needs at least one unitary")
        if dim <= DENSE_VALIDATE_DIM:
            for op in seg.unitaries:
                if id(op) not in checked:
                    check_unitary(op)
                    checked.add(id(op))
        if id(seg.measurement) not in checked:
            seg.measurement.validate()
            checked.add(id(seg.measurement))
        for label in seg.measurement.labels():
            d = seg.decide(label)
            if d.kind == "continue":
                rst = d.reset
                if rst is not None and not (
                    isinstance(rst, BasisSwapOp) and rst.dim == dim
                    and 0 <= rst.a < dim and 0 <= rst.b < dim
                ):
                    raise SpecError(
                        f"segment {s} outcome {label!r}: a reset must be a basis "
                        f"transposition of the register, got {rst.describe()}"
                    )
                if not (s < d.next_segment < len(alg.segments)):
                    raise SpecError("continue must target a strictly later segment")
            elif d.kind not in ("accept", "reject"):
                raise SpecError(f"unknown decision {d.kind!r}")


@dataclass
class QueryRunStats:
    probability: float
    oracle_calls_declared: int
    oracle_calls_worst_path: int
    branches_processed: int


def run_query_alg(alg: QueryAlgorithm, z: Sequence[int], stats: bool = False):
    """Exact acceptance probability on input word z by branch enumeration.

    Branches with identical (segment, state) merge by summing weights;
    probabilities below the pruning threshold are dropped.
    """
    zbits = as_bits(z, alg.arity)
    # branch bookkeeping: segment id -> {state key: (weight, psi)}
    pending: dict[int, dict[bytes, tuple[float, np.ndarray]]] = {0: {}}
    psi0 = alg.initial_state()
    pending[0][psi0.tobytes()] = (1.0, psi0)
    accept = 0.0
    branches = 0
    worst_calls = 0
    for s, seg in enumerate(alg.segments):
        here = pending.pop(s, {})
        if not here:
            continue
        worst_calls += seg.calls
        for _, (weight, psi) in here.items():
            branches += 1
            psi = seg.unitaries[0].apply(psi.copy())
            for u in seg.unitaries[1:]:
                psi = apply_oracle(alg.layout, zbits, psi)
                psi = u.apply(psi)
            check_norm(psi, f"in segment {s}")
            for label, p, collapsed in seg.measurement.branches(psi):
                d = seg.decide(label)
                if d.kind == "accept":
                    accept += weight * p
                elif d.kind == "reject":
                    continue
                else:
                    child = collapsed
                    if d.reset is not None:
                        child = d.reset.apply(child)
                    w = weight * p
                    if w <= BRANCH_PRUNE:
                        continue
                    bucket = pending.setdefault(d.next_segment, {})
                    key = child.tobytes()
                    if key in bucket:
                        old_w, old_psi = bucket[key]
                        bucket[key] = (old_w + w, old_psi)
                    else:
                        bucket[key] = (w, child)
    if pending:
        raise SpecError("control schedule left unreachable pending branches")
    if stats:
        return QueryRunStats(accept, alg.total_calls, worst_calls, branches)
    return accept


# --- Grover-style bounded-error OR -------------------------------------------


def grover_schedule(n: int) -> list[int]:
    """Iteration counts for one pass: {0} then powers of two up to the first
    2^s >= pi*sqrt(n)/12, which guarantees some round in the pass succeeds
    with probability >= 1/4 whatever the number of marked items."""
    target = math.pi * math.sqrt(n) / 12.0
    top = 1
    while top < target:
        top *= 2
    js = [0]
    j = 1
    while j <= top:
        js.append(j)
        j *= 2
    return js


GROVER_PASSES = 4          # member failure <= (3/4)^4 < 1/3
GROVER_QUERY_CONSTANT = 9.0


def grover_or(n: int) -> QueryAlgorithm:
    """Bounded-error OR_n: repeated Grover runs with a deterministic
    exponential iteration schedule, each run ending in one verification
    oracle call and a complete measurement of the register.

    One-sided: on z = 0...0 every verification sees answer bit 0, so the
    algorithm rejects with certainty. Non-powers-of-two are padded with
    always-zero indices.
    """
    if n < 2:
        raise InputError("grover-or needs n >= 2")
    n_pad = 1 << (n - 1).bit_length()
    layout = RegisterLayout(n_pad, 1)
    rounds: list[int] = []
    for _ in range(GROVER_PASSES):
        rounds.extend(grover_schedule(n_pad))

    canon = layout.flat(0, 0, 0)
    # every round reuses these instances
    prep = PrepReflectOp(layout, 0)
    idle = IdentityOp(layout.dim)
    enter = ComposeOp([prep, minus_prep_op(layout)])
    diffuse = DiffusionOp(layout)
    leave = ComposeOp([diffuse, unminus_op(layout)])
    measure = CompleteMeasurement(layout.dim)
    resets: dict[int, Op] = {}      # outcome -> its reset, shared by the rounds
    segments = []
    for r, j in enumerate(rounds):
        last = r == len(rounds) - 1
        if j == 0:
            unitaries: list[Op] = [prep, idle]
        else:
            unitaries = [enter] + [diffuse] * (j - 1) + [leave, idle]

        def make_decide(seg_id: int, is_last: bool):
            def decide(outcome: object) -> Decision:
                flat = int(outcome)
                if layout.unpack(flat)[1] == 1:
                    return ACCEPT
                if is_last:
                    return REJECT
                reset = resets.get(flat)
                if reset is None:
                    reset = resets[flat] = BasisSwapOp(layout.dim, flat, canon)
                return Decision("continue", seg_id + 1, reset)
            return decide

        segments.append(
            Segment(tuple(unitaries), measure, make_decide(r, last))
        )

    alg = QueryAlgorithm(
        name=f"grover-or:{n}",
        arity=n,
        layout=layout,
        segments=tuple(segments),
        declared_error=1.0 / 3.0,
        query_constant=GROVER_QUERY_CONSTANT,
        generator={"generator": "grover-or", "n": n},
    )
    if alg.total_calls > GROVER_QUERY_CONSTANT * math.sqrt(n):
        raise SpecError("schedule exceeded the declared query constant")
    return alg


# --- zero-error parity --------------------------------------------------------


def exact_parity(n: int) -> QueryAlgorithm:
    """Zero-error parity of n bits with n/2 oracle calls.

    The answer bit rides in the |-> state (phase kickback); each pair of
    indices is queried in superposition and the pair-Hadamard collapses the
    index to even/odd position of the pair, carrying the running parity in
    which half of the pair the walker sits, including the sign bookkeeping of
    re-entering the next pair's superposition. No intermediate measurement.
    """
    if n < 2 or n % 2:
        raise InputError("exact parity needs even n >= 2")
    layout = RegisterLayout(n, 1)
    pairs = n // 2
    unitaries: list[Op] = [
        ComposeOp([IndexPairHOp(layout, 0, 1), minus_prep_op(layout)])
    ]
    for r in range(1, pairs):
        a = 2 * (r - 1)
        unitaries.append(
            ComposeOp(
                [
                    IndexPairHOp(layout, a, a + 1),
                    IndexPermOp(layout, [(a, a + 2), (a + 1, a + 3)]),
                    IndexPairHOp(layout, a + 2, a + 3),
                ]
            )
        )
    unitaries.append(IndexPairHOp(layout, n - 2, n - 1))

    odd = [layout.flat(n - 1, b, w) for b in (0, 1) for w in range(layout.work_dim)]
    rest = sorted(set(range(layout.dim)) - set(odd))
    measurement = Measurement(
        layout.dim, {"odd": np.array(odd), "even": np.array(rest)}, name="pair-position"
    )

    def decide(outcome: object) -> Decision:
        return ACCEPT if outcome == "odd" else REJECT

    return QueryAlgorithm(
        name=f"exact-parity:{n}",
        arity=n,
        layout=layout,
        segments=(Segment(tuple(unitaries), measurement, decide),),
        declared_error=0.0,
        generator={"generator": "exact-parity", "n": n},
    )


def parse_query_algorithm(ident: str) -> QueryAlgorithm:
    """Algorithm ids: grover-or:<n>, exact-parity:<n>."""
    head, _, arg = ident.partition(":")
    if not arg:
        raise InputError(f"algorithm id needs a size, e.g. grover-or:8 (got {ident!r})")
    try:
        n = int(arg)
    except ValueError:
        raise InputError(f"bad size in {ident!r}") from None
    if head == "grover-or":
        return grover_or(n)
    if head == "exact-parity":
        return exact_parity(n)
    raise InputError(f"unknown algorithm family {head!r}")


# --- optimal decision trees ---------------------------------------------------

DT_ARITY_CAP = 10


@dataclass(frozen=True)
class DecisionTree:
    """Leaf when var < 0 (value holds the constant); else query input bit
    `var` (0-based) and descend into low/high."""

    var: int
    value: int = -1
    low: "DecisionTree | None" = None
    high: "DecisionTree | None" = None

    @property
    def depth(self) -> int:
        if self.var < 0:
            return 0
        return 1 + max(self.low.depth, self.high.depth)

    def eval(self, bits: Sequence[int]) -> int:
        node = self
        while node.var >= 0:
            node = node.high if bits[node.var] else node.low
        return node.value

    def eval_with_queries(self, query: Callable[[int], int]) -> tuple[int, int]:
        """Evaluate via a query callback; returns (value, queries made)."""
        node, made = self, 0
        while node.var >= 0:
            made += 1
            node = node.high if query(node.var) else node.low
        return node.value, made


def leaf(value: int) -> DecisionTree:
    return DecisionTree(-1, value)


def build_optimal_dt(f: BoolFunction) -> DecisionTree:
    """Exhaustive minimax decision tree of minimum depth (arity <= 10).

    Subfunctions reached by restrictions are memoized on their truth tables.
    """
    if f.arity > DT_ARITY_CAP:
        raise RefusalError(f"decision-tree search capped at arity {DT_ARITY_CAP}")
    table = f.truth_table()
    # depth is a function of the truth table alone, so it memoizes cleanly;
    # trees carry original variable ids and are rebuilt per restriction path.
    depth_memo: dict[tuple[int, ...], int] = {}

    def split(tt: tuple[int, ...], pos: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        arity = len(tt).bit_length() - 1
        stride = 1 << (arity - 1 - pos)
        low, high = [], []
        for idx, v in enumerate(tt):
            (high if (idx // stride) % 2 else low).append(v)
        return tuple(low), tuple(high)

    def best_depth(tt: tuple[int, ...]) -> int:
        if len(set(tt)) == 1:
            return 0
        hit = depth_memo.get(tt)
        if hit is not None:
            return hit
        arity = len(tt).bit_length() - 1
        best = arity
        for pos in range(arity):
            lo, hi = split(tt, pos)
            d = 1 + max(best_depth(lo), best_depth(hi))
            if d < best:
                best = d
                if best == 1:
                    break
        depth_memo[tt] = best
        return best

    def build(tt: tuple[int, ...], vars_: tuple[int, ...]) -> DecisionTree:
        if len(set(tt)) == 1:
            return leaf(tt[0])
        target = best_depth(tt)
        for pos in range(len(vars_)):
            lo, hi = split(tt, pos)
            if 1 + max(best_depth(lo), best_depth(hi)) == target:
                rest = vars_[:pos] + vars_[pos + 1 :]
                return DecisionTree(vars_[pos], -1, build(lo, rest), build(hi, rest))
        raise SpecError("minimax bookkeeping lost the achieving variable")

    return build(table, tuple(range(f.arity)))


def dt_optimal_depth(f: BoolFunction) -> int:
    """Exact deterministic query complexity (minimax decision-tree depth)."""
    return build_optimal_dt(f).depth
