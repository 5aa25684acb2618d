"""Quantum query algorithms over a bit-flip oracle, plus decision trees.

The oracle for an input word z acts on (index, answer, workspace) basis
states as |i, b, w> -> |i, b xor z_i, w>. An algorithm is a schedule of
segments; each segment applies its unitaries with one oracle call between
consecutive ones, then performs an orthogonal measurement. Each segment
states its decisions once, as a table with one row per label (`DecisionRows`,
filled with array operations or read from a per-label rule by `per_outcome`):
each outcome halts (accept/reject) or continues into a later segment,
optionally through a reset. A reset must be a basis transposition: the
state at that point is a known basis vector, so a transposition suffices to
re-enter the next segment from a canonical state, and the branch engine
(`run_segments`, shared by `run_query_alg` and the compiled runner) relies
on resets only moving amplitudes.

Plain algorithms are a single segment whose decision never continues.

Validation (`validate_algorithm`) certifies every distinct operator object
through its own `certify()` bound, at every register dimension, and asks
each segment for its table once, checking it with array operations. The
tables are cached on the algorithm object for the runners and serializer.

Builders should reuse one operator (and measurement) instance wherever a
schedule repeats it: validation certifies each distinct object once and
the compiler lifts each distinct object once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
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
    LiftedOp,
    Measurement,
    Op,
    PrepReflectOp,
    RegisterLayout,
    check_unitary,
    minus_prep_op,
    unminus_op,
)

KINDS = ("accept", "reject", "continue")
KIND_ACCEPT, KIND_REJECT, KIND_CONTINUE = range(len(KINDS))


@dataclass(frozen=True)
class Decision:
    kind: str                      # one of KINDS, for per_outcome rules
    next_segment: int = -1
    reset: Op | None = None


ACCEPT = Decision("accept")
REJECT = Decision("reject")


@dataclass(frozen=True)
class DecisionRows:
    """One segment's decisions, row j for label j of its measurement's
    labels(): kind, next segment (-1 when the outcome halts) and the two
    basis indices the reset swaps (-1, -1: none). Arrays may be shared."""

    kind: np.ndarray               # int8 codes into KINDS
    next_segment: np.ndarray       # int64
    swap: np.ndarray               # (rows, 2) int64


@dataclass(frozen=True)
class Segment:
    unitaries: tuple[Op, ...]      # len(unitaries) = oracle calls + 1
    measurement: Measurement
    decide: Callable[[list], DecisionRows]   # measurement labels -> rows

    @property
    def calls(self) -> int:
        return len(self.unitaries) - 1


def per_outcome(rule: Callable[[object], Decision]) -> Callable[[list], DecisionRows]:
    """A Segment.decide that reads the per-label rule once per label, in
    label order. It refuses an unknown kind and a continue reset that is
    not a basis transposition; a halting row drops any target or reset."""

    def decide(labels: list) -> DecisionRows:
        kinds, nexts, swaps = [], [], []
        for label in labels:
            d = rule(label)
            if d.kind not in KINDS:
                raise SpecError(f"outcome {label!r}: unknown decision {d.kind!r}")
            cont = d.kind == "continue"
            rst = d.reset if cont else None
            if rst is not None and not isinstance(rst, BasisSwapOp):
                raise SpecError(f"outcome {label!r}: a reset must be a basis "
                                f"transposition of the register, got {rst.describe()}")
            kinds.append(KINDS.index(d.kind))
            nexts.append(d.next_segment if cont else -1)
            swaps.append((-1, -1) if rst is None else (rst.a, rst.b))
        return DecisionRows(np.array(kinds, dtype=np.int8), np.array(nexts, dtype=np.int64),
                            np.array(swaps, dtype=np.int64).reshape(-1, 2))

    return decide


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

    @cached_property
    def decisions(self) -> list[DecisionRows]:
        """Every segment's decision rows, asked for once and checked when
        the algorithm is first validated (see validate_algorithm)."""
        return _validated_decisions(self)

    @cached_property
    def tables(self) -> list[CompiledSegment]:
        """The segments' decision tables on the algorithm's own register,
        built (after validation) on first use."""
        return segment_tables(self, 1)


def oracle_rows(z: Sequence[int]) -> np.ndarray:
    """The index values an oracle call on input word z marks: every i with
    z_i = 1. z is given on the declared indices; padded index values query
    fixed 0s."""
    return np.flatnonzero(np.asarray(z, dtype=np.int8))


def apply_oracle(layout: RegisterLayout, marked: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """One oracle call: flip the answer bit on every marked index value
    (oracle_rows of the input word), as one row swap."""
    grid = psi.reshape(layout.index_dim, 2, layout.work_dim)
    grid[marked] = grid[marked, ::-1]
    return grid.reshape(-1)


def validate_algorithm(alg: QueryAlgorithm) -> list[DecisionRows]:
    """Structural checks, returning every segment's decision rows.

    Each distinct operator object must carry a unitarity certificate
    (check_unitary, at every register dimension); each measurement must
    partition the basis; each segment's decide is called once and its rows
    must pass _check_rows. The result is cached on the algorithm object
    (alg.decisions): a second call returns it without checking again.
    """
    return alg.decisions


def _validated_decisions(alg: QueryAlgorithm) -> list[DecisionRows]:
    if alg.arity < 1 or alg.layout.index_dim < alg.arity:
        raise SpecError("layout narrower than declared arity")
    # keyed on identity, not describe(): some descriptions omit the matrix
    checked: set[int] = set()
    rows = []
    for s, seg in enumerate(alg.segments):
        if len(seg.unitaries) < 1:
            raise SpecError(f"segment {s} needs at least one unitary")
        for ui, op in enumerate(seg.unitaries):
            if id(op) not in checked:
                try:
                    check_unitary(op)
                except SpecError as exc:
                    raise SpecError(f"segment {s} unitary {ui}: {exc}") from None
                checked.add(id(op))
        if id(seg.measurement) not in checked:
            seg.measurement.validate()
            checked.add(id(seg.measurement))
        labels = seg.measurement.labels()
        try:
            table = seg.decide(labels)
        except SpecError as exc:
            raise SpecError(f"segment {s} {exc}") from None
        _check_rows(table, labels, s, len(alg.segments), alg.layout.dim)
        rows.append(table)
    return rows


def _check_rows(rows: DecisionRows, labels: list, s: int, nseg: int, dim: int):
    """Refuse segment s's rows, naming the first offending label, unless
    they are integer arrays with a row per label, every code is in KINDS,
    every continue targets a later segment, every swap is (-1, -1) or inside
    the register, and halting rows carry no swap or target."""
    n = len(labels)
    kind, nxt, swap = rows.kind, rows.next_segment, rows.swap
    shapes = [getattr(a, "shape", None) for a in (kind, nxt, swap)]
    if shapes != [(n,), (n,), (n, 2)] or any(a.dtype.kind not in "iu" for a in (kind, nxt, swap)):
        short = [sh[0] for sh in shapes if sh and sh[0] < n]
        where = f" outcome {labels[min(short)]!r}" if short else ""
        raise SpecError(f"segment {s}{where}: decision rows must be integer arrays "
                        f"of shapes ({n},), ({n},), ({n}, 2), got {shapes}")
    cont, no_swap = kind == KIND_CONTINUE, (swap == -1).all(axis=1)
    for bad, msg in (
        ((kind < 0) | (kind >= len(KINDS)), "unknown decision code {k}"),
        (cont & ((nxt <= s) | (nxt >= nseg)), "continue must target a strictly later segment, got {t}"),
        (~no_swap & ((swap < 0) | (swap >= dim)).any(axis=1),
         "a reset must be a basis transposition of the register, got swap {w}"),
        (~cont & ((nxt != -1) | ~no_swap), "a halting outcome carries no reset or next segment"),
    ):
        if bad.any():
            j = int(bad.argmax())
            detail = msg.format(k=int(kind[j]), t=int(nxt[j]), w=swap[j].tolist())
            raise SpecError(f"segment {s} outcome {labels[j]!r}: {detail}")


class _LiftedOutcomes:
    """An algorithm measurement over the register lifted by cache_dim blocks
    (1: the algorithm's own register), built once per distinct measurement
    object: its possible labels, their rows, and the lifted basis positions
    of every outcome group. Outcome groups simply repeat in every cache
    block, so labels are unchanged."""

    def __init__(self, meas: Measurement, cache_dim: int, k: int):
        self.meas = meas
        self.cache_dim = cache_dim
        self.k = k
        self.labels = meas.labels()
        self.complete = isinstance(meas, CompleteMeasurement)
        lift = np.arange(cache_dim, dtype=np.int64) * k
        if self.complete:
            # one (labels x cache_dim) array: row a is basis index a per block
            self.groups = np.arange(k, dtype=np.int64)[:, None] + lift
        else:
            self.groups = [(lift[:, None] + meas.outcomes[label]).reshape(-1)
                           for label in self.labels]

    @cached_property
    def rows(self) -> dict:
        """label -> row, for the step-level runners."""
        return {label: j for j, label in enumerate(self.labels)}

    @cached_property
    def lifted(self) -> Measurement:
        """The lifted measurement itself, for the step-level runners."""
        return Measurement(self.cache_dim * self.k, dict(zip(self.labels, self.groups)),
                           name=f"{self.meas.name}-lifted")

    def weights(self, psi: np.ndarray) -> list[float]:
        """Probability of every row's outcome, summed per group in the same
        order as the lifted measurement sums it."""
        w2 = np.abs(psi) ** 2
        if self.complete:
            rows = np.ascontiguousarray(w2.reshape(self.cache_dim, self.k).T)
            return rows.sum(axis=1).tolist()
        return [float(w2[g].sum()) for g in self.groups]


def _transposed(pos: np.ndarray, a, b, k: int) -> np.ndarray:
    """Lifted positions pos after exchanging algorithm basis indices a and b
    in every cache block (a = b = -1 leaves them)."""
    inner = pos % k
    return pos - inner + np.where(inner == a, b, np.where(inner == b, a, inner))


def _routes(outcomes: _LiftedOutcomes, rows: DecisionRows):
    """The kind list and the src/dst positions (see CompiledSegment) of a
    lifted measurement under one kind and swap array."""
    kind, k = rows.kind.tolist(), outcomes.k
    if outcomes.complete:
        # one group position per block, so every row stays ascending
        src = outcomes.groups
        return kind, src, _transposed(src, rows.swap[:, :1], rows.swap[:, 1:], k)
    src, dst = {}, {}                              # only continuing rows collapse
    for j, (g, (a, b)) in enumerate(zip(outcomes.groups, rows.swap.tolist())):
        if kind[j] == KIND_CONTINUE:
            moved = _transposed(g, a, b, k)
            order = np.argsort(moved, kind="stable")
            src[j], dst[j] = g[order], moved[order]
    return kind, src, dst


class CompiledSegment:
    """One algorithm segment on the lifted register, fixed before any run.

    ops are the lifted unitaries; kind and next_segment are the segment's
    decision rows as lists, and swap its swap array, shared by every lift.
    src[j] and dst[j] are the lifted positions of continuing outcome j's
    group before and after its reset, both ordered by dst; for a complete
    measurement they are (labels x cache_dim) arrays covering every row.
    kind, src and dst come from _routes and are shared by every segment
    with the same lifted measurement, kind array and swap array.
    """

    def __init__(self, ops: list, outcomes: _LiftedOutcomes, rows: DecisionRows, routes):
        self.ops = ops
        self.calls = len(ops) - 1
        self.outcomes = outcomes
        self.kind, self.src, self.dst = routes
        self.next_segment = rows.next_segment.tolist()
        self.swap = rows.swap
        self._resets: dict = {}

    def collapse(self, psi: np.ndarray, rows: list, probs: list):
        """(key, positions, values) of the collapsed, reset state of each
        continuing row; only positions in the row's group can be non-zero."""
        if self.outcomes.complete:
            vals = psi[self.src[rows]] / np.sqrt(probs)[:, None]
            pos = self.dst[rows]
            return zip(_sparse_keys(pos, vals), pos, vals)
        out = []
        for j, prob in zip(rows, probs):
            vals = psi[self.src[j]] / np.sqrt(prob)
            out.append((_sparse_keys(self.dst[j][None], vals[None])[0],
                        self.dst[j], vals))
        return out

    def row(self, label) -> int:
        return self.outcomes.rows[label]

    def reset(self, j: int) -> BasisSwapOp | None:
        """Row j's reset on the algorithm register."""
        a, b = self.swap[j].tolist()
        return None if a < 0 else BasisSwapOp(self.outcomes.k, a, b)

    def reset_op(self, j: int) -> Op:
        """Row j's lifted reset, for the step-level runners (built on use)."""
        op = self._resets.get(j)
        if op is None:
            inner, blocks = self.reset(j), self.outcomes.cache_dim
            op = (IdentityOp(self.outcomes.k * blocks) if inner is None
                  else LiftedOp(inner, blocks))
            self._resets[j] = op
        return op


def segment_tables(alg: QueryAlgorithm, cache_dim: int) -> list[CompiledSegment]:
    """The decision table of every segment of an algorithm on its register
    lifted by cache_dim blocks (1: the register itself), from the decision
    rows validation cached on it (validating it first if it was not). Each
    distinct operator and measurement object is lifted once, and each
    distinct (lifted measurement, kind, swap) triple routed once."""
    k = alg.layout.dim
    identity = IdentityOp(cache_dim * k)
    lifted: dict = {}

    def lift(key, make, *args):
        hit = lifted.get(key)
        if hit is None:
            hit = lifted[key] = make(*args)
        return hit

    def lift_op(u: Op) -> Op:
        if cache_dim == 1:
            return u
        return identity if isinstance(u, IdentityOp) else LiftedOp(u, cache_dim)

    tables = []
    for seg, rows in zip(alg.segments, alg.decisions):
        outcomes = lift(id(seg.measurement), _LiftedOutcomes, seg.measurement, cache_dim, k)
        routes = lift((id(outcomes), id(rows.kind), id(rows.swap)), _routes, outcomes, rows)
        tables.append(CompiledSegment([lift(id(u), lift_op, u) for u in seg.unitaries],
                                      outcomes, rows, routes))
    return tables


def _sparse_keys(pos: np.ndarray, vals: np.ndarray) -> list[bytes]:
    """One key per row: the dense vector holding the row's vals at its pos
    (ascending) and +0.0 elsewhere, keyed by the (position, bit pattern)
    pairs whose bits are non-zero. Equal keys mean bitwise-equal vectors,
    so -0.0 stays distinct from 0.0."""
    nz = vals.view(np.uint64).reshape(*vals.shape, 2).any(axis=2)
    pos_b = pos[nz].tobytes()
    val_b = vals[nz].tobytes()
    keys = []
    start = 0
    for end in np.cumsum(nz.sum(axis=1)).tolist():
        keys.append(pos_b[8 * start : 8 * end] + val_b[16 * start : 16 * end])
        start = end
    return keys


@dataclass
class FrontierRun:
    """What run_segments saw. A branch's history is the set of (oracle
    calls, resets) pairs of the paths merged into it; accepted and rejected
    hold the history of every branch with an outcome of that kind."""

    accept_probability: float
    halts: int                    # halting outcomes above the pruning floor
    accepted: list[frozenset]
    rejected: list[frozenset]
    continued: dict[int, set]     # per segment some branch ran: rows that continued


def run_segments(tables: list[CompiledSegment], psi: np.ndarray, oracle,
                 name: str) -> FrontierRun:
    """Exact branch evaluation of a segment schedule from state psi, with
    oracle(psi) -> psi making one oracle call.

    Outcomes are routed through each segment's decision table. An outcome
    of probability at most BRANCH_PRUNE, or of branch weight below it, is
    dropped; a halting outcome only adds its weight; a continuing outcome
    becomes a dense state only when its post-reset state is new to the next
    segment, and otherwise merges into the branch with the same sparse key,
    in the order the branches were created. Halting mass that misses 1 by
    more than 1e-6 raises SpecError, labelled with name.
    """
    # per segment: sparse state key -> [weight, psi, history]
    pending: list[dict] = [dict() for _ in tables]
    pending[0][b""] = [1.0, psi, frozenset({(0, 0)})]
    accept_p, reject_p, halts = 0.0, 0.0, 0
    accepted, rejected = [], []
    continued: dict[int, set] = {}
    for si, cs in enumerate(tables):
        if not pending[si]:
            continue
        continued[si] = set()
        ops = cs.ops
        for w, psi, history in pending[si].values():
            psi = ops[0].apply(psi)
            for op in ops[1:]:
                psi = op.apply(oracle(psi))
            history = frozenset((c + cs.calls, r) for c, r in history)
            cont, cont_p, cont_w, kinds = [], [], [], set()
            for j, prob in enumerate(cs.outcomes.weights(psi)):
                if prob <= BRANCH_PRUNE:
                    continue   # pruned by the measurement itself
                wp = w * prob
                if wp < BRANCH_PRUNE:
                    continue   # below the branch pruning floor
                kind = cs.kind[j]
                if kind == KIND_ACCEPT:
                    accept_p += wp
                elif kind == KIND_REJECT:
                    reject_p += wp
                else:
                    cont.append(j)
                    cont_p.append(prob)
                    cont_w.append(wp)
                    continue
                halts += 1
                kinds.add(kind)
            if KIND_ACCEPT in kinds:
                accepted.append(history)
            if KIND_REJECT in kinds:
                rejected.append(history)
            if not cont:
                continue
            continued[si].update(cont)
            history = frozenset((c, r + 1) for c, r in history)
            collapsed = cs.collapse(psi, cont, cont_p)
            for j, wp, (key, pos, vals) in zip(cont, cont_w, collapsed):
                bucket = pending[cs.next_segment[j]]
                slot = bucket.get(key)
                if slot is None:
                    child = np.zeros_like(psi)
                    child[pos] = vals
                    bucket[key] = [wp, child, history]
                else:
                    slot[0] += wp
                    slot[2] = slot[2] | history

    total = accept_p + reject_p
    if abs(total - 1.0) > 1e-6:
        raise SpecError(
            f"{name}: terminal branch weights sum to {total}, "
            "lost probability mass exceeds the pruning budget"
        )
    return FrontierRun(min(accept_p, 1.0), halts, accepted, rejected, continued)


def run_query_alg(alg: QueryAlgorithm, z: Sequence[int]) -> float:
    """Exact acceptance probability on input word z.

    The schedule runs through run_segments on the algorithm's own register
    (the lift-factor-1 case of the compiled runner), with apply_oracle as
    the oracle; the algorithm is validated and its tables are built on its
    first run.
    """
    marked = oracle_rows(as_bits(z, alg.arity))
    layout = alg.layout
    return run_segments(
        alg.tables, alg.initial_state(),
        lambda psi: apply_oracle(layout, marked, psi), alg.name,
    ).accept_probability


# --- Grover-style bounded-error OR -------------------------------------------


def grover_schedule(n: int) -> list[int]:
    """Iteration counts for one pass: {0} then powers of two up to the first
    2^s >= pi*sqrt(n)/12, which guarantees some round in the pass succeeds
    with probability >= 1/4 whatever the number of marked items."""
    top = 1
    while top < math.pi * math.sqrt(n) / 12.0:
        top *= 2
    return [0] + [1 << e for e in range(top.bit_length())]


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
    rounds = grover_schedule(n_pad) * GROVER_PASSES

    # every round reuses these instances
    prep = PrepReflectOp(layout, 0)
    idle = IdentityOp(layout.dim)
    enter = ComposeOp([prep, minus_prep_op(layout)])
    diffuse = DiffusionOp(layout)
    leave = ComposeOp([diffuse, unminus_op(layout)])
    measure = CompleteMeasurement(layout.dim)

    # rows over the outcomes 0..dim-1: accept on answer bit 1, else swap the
    # outcome with the canonical index and continue (reject in the last round)
    flat = np.arange(layout.dim, dtype=np.int64)
    answer = (flat // layout.work_dim) % 2 == 1
    kind_next = np.where(answer, KIND_ACCEPT, KIND_CONTINUE).astype(np.int8)
    canon = np.full_like(flat, layout.flat(0, 0, 0))
    swap_next = np.where(answer[:, None], -1, np.stack([flat, canon], axis=1))
    last = DecisionRows(np.where(answer, KIND_ACCEPT, KIND_REJECT).astype(np.int8),
                        np.full_like(flat, -1), np.full_like(swap_next, -1))
    for shared in (kind_next, swap_next, last.kind, last.next_segment, last.swap):
        shared.flags.writeable = False
    segments = []
    for r, j in enumerate(rounds):
        unitaries = [prep, idle] if j == 0 else [enter] + [diffuse] * (j - 1) + [leave, idle]
        rows = last if r == len(rounds) - 1 else DecisionRows(
            kind_next, np.where(answer, -1, r + 1), swap_next)
        segments.append(Segment(tuple(unitaries), measure, lambda labels, rows=rows: rows))

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
    measurement = Measurement(layout.dim, {"odd": np.array(odd), "even": np.array(rest)},
                              name="pair-position")

    return QueryAlgorithm(
        name=f"exact-parity:{n}",
        arity=n,
        layout=layout,
        segments=(Segment(tuple(unitaries), measurement, per_outcome(
            lambda outcome: ACCEPT if outcome == "odd" else REJECT)),),
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
