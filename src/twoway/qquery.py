"""Quantum query algorithms over a bit-flip oracle, plus decision trees.

The oracle for an input word z acts on (index, answer, workspace) basis
states as |i, b, w> -> |i, b xor z_i, w>. An algorithm is a schedule of
segments; each segment applies its unitaries with one oracle call between
consecutive ones, then performs an orthogonal measurement. Each segment
states its decisions once, as a table with one row per label (`DecisionRows`,
filled with array operations or read from a per-label rule by `per_outcome`):
each outcome halts (accept/reject) or continues into a later segment,
optionally through a reset: a basis transposition, so that resets only
move amplitudes.

One branch engine (`run_segments`, which `run_query_alg_lanes` and the
compiled runner both run on the algorithm's own register, through
`QueryAlgorithm.tables`) evaluates many inputs (lanes) at once, on arrays:
per segment it stacks every branch of a block of lanes, sends each continuing
outcome on collapsed and reset, and groups what a segment was sent by lane
and bitwise state (a stable np.lexsort on integer key columns), summing
weights in arrival order with np.add.at, so a lane's result is bitwise the
one it gets alone. A branch's history keeps, per number of resets, the most
oracle calls of a path merged into it: the maximum over its distinct source
branches' rows, shifted one reset. The engine reports every lane's results
as arrays (SegmentRuns).
Plain algorithms are a single segment whose decision never continues.

Validation (`validate_algorithm`) certifies every distinct operator object
through its own `certify()` bound and checks each segment's table once,
with array operations; the tables are cached on the algorithm object.
Builders should reuse one operator (and measurement) instance wherever a
schedule repeats it: validation certifies and the compiler lifts each
distinct object once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .boolfn import BoolFunction, as_bits, bit_string, is_bit_matrix
from .errors import InputError, RefusalError, SpecError
from .kernels import oracle_masks, segment_pass
from .ops import (
    BRANCH_PRUNE,
    LOST_MASS,
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
    check_lost_mass,
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
        """The segments' decision tables, built (after validation) on
        first use."""
        return segment_tables(self)


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
    labels_of: dict[int, list] = {}      # per measurement object
    passed: set = set()                  # (kind, swap) array ids checked
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
        labels = labels_of.get(id(seg.measurement))
        if labels is None:
            seg.measurement.validate()
            labels = labels_of[id(seg.measurement)] = seg.measurement.labels()
        try:
            table = seg.decide(labels)
        except SpecError as exc:
            raise SpecError(f"segment {s} {exc}") from None
        _check_rows(table, labels, s, len(alg.segments), alg.layout.dim, passed)
        rows.append(table)
    return rows


def _check_rows(rows: DecisionRows, labels: list, s: int, nseg: int, dim: int, passed: set):
    """Refuse segment s's rows, naming the first offending label, unless
    they are integer arrays with a row per label, every code is in KINDS,
    every continue targets a later segment, every swap is (-1, -1) or inside
    the register, and halting rows carry no swap or target. Codes and swaps
    are checked once per (kind, swap) array pair in passed."""
    n = len(labels)
    kind, nxt, swap = rows.kind, rows.next_segment, rows.swap
    shapes = [getattr(a, "shape", None) for a in (kind, nxt, swap)]
    if shapes != [(n,), (n,), (n, 2)] or any(a.dtype.kind not in "iu" for a in (kind, nxt, swap)):
        short = [sh[0] for sh in shapes if sh and sh[0] < n]
        where = f" outcome {labels[min(short)]!r}" if short else ""
        raise SpecError(f"segment {s}{where}: decision rows must be integer arrays "
                        f"of shapes ({n},), ({n},), ({n}, 2), got {shapes}")
    cont, pair = kind == KIND_CONTINUE, (id(kind), id(swap))
    target = (cont & ((nxt <= s) | (nxt >= nseg)),
              "continue must target a strictly later segment, got {t}")
    halting = ~cont & (nxt != -1)
    checks = [target]
    if pair not in passed:
        no_swap = (swap == -1).all(axis=1)
        checks = [((kind < 0) | (kind >= len(KINDS)), "unknown decision code {k}"), target,
                  (~no_swap & ((swap < 0) | (swap >= dim)).any(axis=1),
                   "a reset must be a basis transposition of the register, got swap {w}")]
        halting |= ~cont & ~no_swap
    checks.append((halting, "a halting outcome carries no reset or next segment"))
    for bad, msg in checks:
        if bad.any():
            j = int(bad.argmax())
            detail = msg.format(k=int(kind[j]), t=int(nxt[j]), w=swap[j].tolist())
            raise SpecError(f"segment {s} outcome {labels[j]!r}: {detail}")
    passed.add(pair)


class _Outcomes:
    """An algorithm measurement's possible labels and the basis indices of
    every outcome group, built once per distinct measurement object."""

    def __init__(self, meas: Measurement):
        self.labels = meas.labels()
        self.complete = isinstance(meas, CompleteMeasurement)
        if self.complete:
            # one (labels x 1) array: row a is basis index a
            self.groups = np.arange(meas.dim, dtype=np.int64)[:, None]
        else:
            self.groups = [meas.outcomes[label] for label in self.labels]

    def weights(self, psi: np.ndarray) -> np.ndarray:
        """(states, rows): the probability of every row's outcome in every
        state of a stack, a partition group as one pairwise sum whatever
        the stack's height."""
        w2 = np.abs(psi) ** 2
        if self.complete:
            return w2                      # one term per group
        # take, not w2[:, g]: that copy is F-ordered, and a stack of two or
        # more states would sum it sequentially, one alone pairwise
        return np.stack([w2.take(g, axis=1).sum(axis=1) for g in self.groups], axis=1)


def _transposed(pos: np.ndarray, a, b) -> np.ndarray:
    """Basis positions pos after exchanging basis indices a and b (a = b =
    -1 leaves them)."""
    return np.where(pos == a, b, np.where(pos == b, a, pos))


def _routes(outcomes: _Outcomes, rows: DecisionRows):
    """The src/dst positions (see CompiledSegment) of a measurement under
    one kind and swap array."""
    if outcomes.complete:
        # one group position per row, so every row stays ascending
        src = outcomes.groups
        return src, _transposed(src, rows.swap[:, :1], rows.swap[:, 1:])
    # one row per label, padded with -1 to the widest group; only continuing
    # rows collapse, so only they are filled
    src = np.full((len(outcomes.groups), max(map(len, outcomes.groups))), -1, dtype=np.int64)
    dst = src.copy()
    for j in np.flatnonzero(rows.kind == KIND_CONTINUE).tolist():
        g = outcomes.groups[j]
        moved = _transposed(g, *rows.swap[j].tolist())
        order = np.argsort(moved, kind="stable")
        src[j, :len(g)], dst[j, :len(g)] = g[order], moved[order]
    return src, dst


class CompiledSegment:
    """One algorithm segment on its own register, fixed before any run.

    ops are the segment's unitaries; kind and next_segment are its decision
    rows; targets are the distinct segments it continues to.
    src[j] and dst[j] are the positions of continuing outcome j's group
    before and after its reset, both ordered by dst: rows of one
    (labels x width) array each, one wide for a complete measurement and
    padded with -1 past a partition group. src and dst come from _routes
    and are shared by every segment with the same measurement, kind array
    and swap array.
    """

    def __init__(self, ops, outcomes: _Outcomes, rows: DecisionRows, routes):
        self.ops = ops
        self.calls = len(ops) - 1
        self.outcomes = outcomes
        self.kind = rows.kind
        self.continues = rows.kind == KIND_CONTINUE
        self.src, self.dst = routes
        self.next_segment = rows.next_segment
        self.targets = np.flatnonzero(np.bincount(rows.next_segment[self.continues])).tolist()

    def collapse(self, psi: np.ndarray, r: np.ndarray, j: np.ndarray, probs: np.ndarray):
        """(positions, values) of the collapsed, reset state of row j's
        outcome in state r of a stack, for every (r, j) pair: one row each,
        as wide as dst, positions ascending and padded with (-1, 0). Only
        positions in the row's group can be non-zero."""
        pos = self.dst[j]
        vals = psi[r[:, None], self.src[j]] / np.sqrt(probs)[:, None]
        if not self.outcomes.complete:
            vals[pos < 0] = 0
        return pos, vals


def segment_tables(alg: QueryAlgorithm) -> list[CompiledSegment]:
    """The decision table of every segment of an algorithm, from the
    decision rows validation cached on it (validating it first if it was
    not). Each distinct measurement object is tabled once, and each
    distinct (measurement, kind, swap) triple routed once."""
    built: dict = {}

    def once(key, make, *args):
        hit = built.get(key)
        if hit is None:
            hit = built[key] = make(*args)
        return hit

    tables = []
    for seg, rows in zip(alg.segments, alg.decisions):
        outcomes = once(id(seg.measurement), _Outcomes, seg.measurement)
        routes = once((id(outcomes), id(rows.kind), id(rows.swap)), _routes, outcomes, rows)
        tables.append(CompiledSegment(seg.unitaries, outcomes, rows, routes))
    return tables


class SegmentRuns(NamedTuple):
    """What run_segments saw on every lane, as arrays in lane order."""

    accept: np.ndarray            # (lanes,) accepting mass, at most 1
    halts: np.ndarray             # (lanes,) halting outcomes above the pruning floor
    # (lanes, 2, segments): per kind (accept, reject) and number of resets
    # (below segments), the most oracle calls of a path halting that way (-1: none)
    halted: np.ndarray
    ran: np.ndarray               # (lanes, segments) rows continued per segment run, -1: none


# A block holds LANE_CELLS // dimension lanes (at least one); its stack takes
# lanes x live branches x dimension x 16 B, and one block is pending at a time.
# Every engine run is on an algorithm's own register (compiled rows too), so
# an AND-gadget row at 2^11 blocks the lanes the lifted register did at 2^12.
# Of 2^10-2^13 (BENCH_algorithm_register.json), 2^11 is the smallest on the
# small-exhaustive and parity-large plateau; 2^12 gives ints-sweep 3-6% more
# inputs/s for 0.9 MB more peak RSS.
LANE_CELLS = 1 << 11
# no path: a history entry stays negative whatever calls are added to it
NO_PATH = np.iinfo(np.int64).min // 2


def run_segments(tables: list[CompiledSegment], psi: np.ndarray, masks: np.ndarray,
                 d_w: int, name: str, lane_name: Callable[[int], str],
                 oracle=segment_pass) -> SegmentRuns:
    """Exact branch evaluation of a segment schedule from state psi, on
    every lane (one input word or pair) of masks, in lane order.

    masks[lane] holds the cells an oracle call on that lane's input flips
    (kernels.oracle_masks, of a word or of a pair's gadget word) on a
    register of d_w work values per answer, and oracle(stack, flip, d_w)
    makes that call in place on a stack of states (kernels.segment_pass).
    Lanes run in blocks of at most LANE_CELLS register entries. Per
    segment, the branches of a block
    are stacked lane-major, each lane's in creation order; each operator is
    applied once per stack, with one flip index for all its oracle calls.

    Outcomes are handled as arrays. One of probability at most BRANCH_PRUNE,
    or of branch weight below it, is dropped; a halting one adds its weight
    to its lane's mass of that kind; a continuing one is collapsed, reset
    and sent on with its lane, weight and source branch. A continue only
    targets a later segment, so a segment has all it was sent when it
    starts: one branch per (lane, collapsed state) group, keyed bitwise
    (-0.0 is not 0.0) on integer columns grouped by a stable np.lexsort,
    lane-major in first-arrival order. Weights and masses are summed with
    np.add.at in arrival order, as a run on the lane alone sums them. A
    branch's history is a row over resets, the most oracle calls of a path
    with that many (NO_PATH: none): a merged branch's row is the maximum
    over its distinct source branches' rows, shifted one reset, so a maximum
    over a lane's halting paths of a function that grows with calls is one
    over its halted rows. The first lane whose halting mass misses 1 by more
    than LOST_MASS raises SpecError, labelled with name and lane_name(lane).
    """
    block, nseg = max(1, LANE_CELLS // psi.shape[-1]), len(tables)
    parts = [SegmentRuns(np.zeros(0), np.zeros(0, np.int64), np.zeros((0, 2, nseg), np.int64),
                         np.zeros((0, nseg), np.int64))]         # a row of no lanes
    for lo in range(0, len(masks), block):
        total, part = _run_block(tables, psi, masks[lo:lo + block], d_w, oracle)
        lane = int((np.abs(total - 1.0) > LOST_MASS).argmax())    # the first failing, or 0
        check_lost_mass(float(total[lane]), lambda: f"{name} on {lane_name(lo + lane)}")
        parts.append(part)
    return SegmentRuns._make(map(np.concatenate, zip(*parts)))


def _enter(batches: list, dim: int):
    """(lane, weight, states, histories) of the stack entering a segment
    from what was sent to it: per sending segment run, in order, (lane,
    weight, positions, values, source row) per outcome, and the sender's
    histories after the reset, one row per source branch. A branch is a
    (lane, collapsed state) group, keyed on the state's non-zero (position,
    bit pattern) entries in position order; branches are lane-major, each
    lane's in the order of their first outcomes."""
    if len(batches) == 1:
        (lane, w, pos, vals, src, hist), = batches
    else:
        width = max(b[2].shape[1] for b in batches)
        # offset each batch's source rows into the concatenated histories
        offsets = np.cumsum([0] + [len(b[5]) for b in batches[:-1]])
        lane, w, pos, vals, src, hist = (np.concatenate(col) for col in zip(*[
            (b[0], b[1], np.pad(b[2], ((0, 0), (0, width - b[2].shape[1])), constant_values=-1),
             np.pad(b[3], ((0, 0), (0, width - b[3].shape[1]))), b[4] + off, b[5])
            for b, off in zip(batches, offsets)]))
    m, width = pos.shape
    if not vals.all():                 # some entry is 0.0 or -0.0
        # each row's non-zero entries first, in position order, then (-1, 0)
        nz = vals.view(np.uint64).reshape(m, width, 2).any(axis=2)
        order, at = np.argsort(~nz, axis=1, kind="stable"), np.arange(m)[:, None]
        pos, vals = np.where(nz, pos, -1)[at, order], vals[at, order]
    # one key column per lane, position and value bit pattern; a stable
    # lexsort puts each group together, led by its first outcome
    key = np.concatenate([lane[None], pos.T, vals.view(np.int64).T])
    perm = np.lexsort(key)
    new = np.zeros(m, dtype=bool)        # where a group starts: a column changes
    new[0] = True
    for col in key.take(perm, axis=1):
        new[1:] |= col[1:] != col[:-1]
    starts = perm[new]
    order = np.lexsort((starts, lane[starts]))
    branch = np.empty(m, dtype=np.int64)
    branch[perm] = order.argsort()[np.cumsum(new) - 1]
    head = starts[order]
    weight = np.zeros(len(head))
    np.add.at(weight, branch, w)
    psi = np.zeros((len(head), dim), dtype=np.complex128)
    pos, vals = pos[head], vals[head]
    on = pos >= 0
    psi[on.nonzero()[0], pos[on]] = vals[on]
    # maxima ignore order and repeats: one row per run of equal sources in a
    # group (sources never decrease in arrival order, so runs are distinct)
    src = src[perm]
    run = new.copy()
    run[1:] |= src[1:] != src[:-1]
    merged = np.maximum.reduceat(hist[src[run]], np.flatnonzero(new[run]), axis=0)[order]
    return lane[head], weight, psi, merged


def _run_block(tables, psi, masks, d_w, oracle) -> tuple[np.ndarray, SegmentRuns]:
    """run_segments on one block of lanes: each lane's halting mass, and its runs."""
    lanes, dim, nseg = len(masks), psi.shape[-1], len(tables)
    sent: list[list] = [[] for _ in tables]          # per segment, see _enter
    sums = np.zeros(2 * lanes)                       # halting mass per 2 * lane + kind
    halted = np.full((2 * lanes, nseg), NO_PATH)     # their histories
    halts = np.zeros(2 * lanes, dtype=np.int64)      # halting outcomes, the same way
    ran = np.full((lanes, nseg), -1)                 # label rows continued per segment run
    # every lane enters segment 0 once, in its initial state, with history (0, 0)
    lane_of, weight = np.arange(lanes), np.ones(lanes)
    psi = np.repeat(psi[None], lanes, axis=0)
    hist = np.full((lanes, nseg), NO_PATH)
    hist[:, 0] = 0
    for si, cs in enumerate(tables):
        if si:
            if not sent[si]:
                continue
            lane_of, weight, psi, hist = _enter(sent[si], dim)
            sent[si] = None
        psi = cs.ops[0].apply(psi)
        if cs.calls:
            flip = np.nonzero(masks[lane_of])
            for op in cs.ops[1:]:
                oracle(psi, flip, d_w)
                psi = op.apply(psi)
        prob = cs.outcomes.weights(psi)
        wp = weight[:, None] * prob
        # kept: above the measurement's own pruning and the branch weight floor
        r_k, j_k = np.nonzero((prob > BRANCH_PRUNE) & (wp >= BRANCH_PRUNE))
        kind, lane_k, w = cs.kind[j_k], lane_of[r_k], wp[r_k, j_k]
        hist = hist + cs.calls
        halt = kind != KIND_CONTINUE
        if halt.any():
            owner = (2 * lane_k + kind)[halt]
            np.add.at(sums, owner, w[halt])
            halts += np.bincount(owner, minlength=2 * lanes)
            # one maximum per (branch, kind) pair: maxima ignore order
            seen = np.zeros(2 * len(hist), dtype=bool)
            seen[2 * r_k[halt] + kind[halt]] = True
            pair = np.flatnonzero(seen)
            np.maximum.at(halted, 2 * lane_of[pair // 2] + pair % 2, hist[pair // 2])
        rows = np.zeros((lanes, len(cs.kind)), dtype=bool)
        if not halt.all():
            cont = ~halt
            r_c, j_c = r_k[cont], j_k[cont]
            pos, vals = cs.collapse(psi, r_c, j_c, prob[r_c, j_c])
            # a reset moves every history entry to one more reset; sent per branch
            after = np.full((len(hist), nseg), NO_PATH)
            after[:, 1:] = hist[:, :-1]
            batch = (lane_k[cont], w[cont], pos, vals, r_c)
            rows[batch[0], j_c] = True
            if len(cs.targets) == 1:
                sent[cs.targets[0]].append(batch + (after,))
            else:
                target = cs.next_segment[j_c]
                for t in cs.targets:
                    to = target == t
                    if to.any():
                        sent[t].append(tuple(a[to] for a in batch) + (after,))
        ran[lane_of, si] = rows.sum(axis=1)[lane_of]
    acc, rej = sums[::2], sums[1::2]
    return acc + rej, SegmentRuns(np.minimum(acc, 1.0), halts[::2] + halts[1::2],
                                  np.maximum(halted, -1).reshape(lanes, 2, nseg), ran)


def run_query_alg(alg: QueryAlgorithm, z: Sequence[int]) -> float:
    """Exact acceptance probability on input word z: the one-lane case of
    run_query_alg_lanes. A lone run pays the engine's per-segment numpy
    calls for one lane: about 325 us per grover_or(6) word, against 9 us a
    word in a 512-word run_query_alg_lanes call and 245 us for the one-vector
    loop the engine replaced (2-vCPU x86 VM, BENCH_lane_blocks.json)."""
    return run_query_alg_lanes(alg, np.array([as_bits(z, alg.arity)], dtype=np.uint8))[0]


def run_query_alg_lanes(alg: QueryAlgorithm, words: np.ndarray) -> list[float]:
    """Exact acceptance probability on every input word, given as a bit
    matrix (one row of alg.arity bits per lane).

    The schedule runs through run_segments on the algorithm's own register,
    as the compiled runner runs it, with a plain oracle call as the oracle;
    the algorithm is validated and its tables are built on its first run.
    """
    if not is_bit_matrix(words, alg.arity):
        raise InputError(f"input words must be a bit matrix of {alg.arity} columns")
    masks = oracle_masks(words, alg.layout.index_dim)
    return run_segments(alg.tables, alg.initial_state(), masks, alg.layout.work_dim,
                        alg.name, lambda lane: bit_string(words[lane])).accept.tolist()


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
