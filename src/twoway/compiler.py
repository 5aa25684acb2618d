"""Compile a query algorithm plus a two-party gadget into a two-way machine.

Input words have the form x #^n y with |x| = |y| = n = p*m. The produced
machine form-checks the word classically, then replays the algorithm's
unitaries at the left end marker and simulates each oracle call by sweeping
the tape: an x-pass XORs x's bits blockwise into an m-bit cache register
(controlled on the index register), the y-pass flips the answer bit on block
i exactly when g(cache, y_i) = 1, and a second x-pass returns the cache to
zero. The final measurement happens at the left end marker and routes each
outcome to accept, reject, or a reset step that starts the next round.

The quantum register therefore has 2^m * k basis states (k = the algorithm's
register dimension) and the classical control needs O(t*n) states for t
oracle calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .automata import ExactRunResult, StateSpace, TwoWayQcfa
from .boolfn import Gadget, bit_string, is_bit_matrix
from .errors import InputError, SpecError, UnsupportedStructureError
from .kernels import flip_masks, oracle_masks, segment_pass
from .ops import BRANCH_PRUNE, CacheFlipOp, GadgetFlipOp, IdentityOp
from .qquery import (
    KIND_ACCEPT,
    KIND_CONTINUE,
    KIND_REJECT,
    QueryAlgorithm,
    run_segments,
    segment_tables,
    validate_algorithm,
)

__all__ = [
    "CompilationReport",
    "CompiledRuns",
    "compile_query_to_qcfa",
    "run_compiled",
    "run_compiled_lanes",
    "verify_segment_equivalence",
]

ACC = ("acc",)
REJ = ("rej",)


@dataclass
class CompilationReport:
    """The produced machine plus the state accounting behind it.

    phase_table has one row per segment: oracle calls made in it, classical
    states per pass, and how many measurement outcomes continue to a later
    segment (each owns one reset state).
    """

    machine: TwoWayQcfa
    quantum_basis_count: int
    declared_states: int
    declared_formula: str
    phase_table: list
    n: int
    m: int
    p: int
    t: int
    time_bound: int                       # 8t(n+2) + 4(n+2)
    algorithm: QueryAlgorithm = field(repr=False, default=None)
    gadget: Gadget = field(repr=False, default=None)
    # internals run_compiled_lanes and verify_segment_equivalence read
    segments: list = field(repr=False, default=None)    # CompiledSegment per segment
    gflip: np.ndarray = field(repr=False, default=None)
    k_alg: int = field(repr=False, default=0)
    cache_dim: int = field(repr=False, default=0)
    d_w: int = field(repr=False, default=0)
    p_pad: int = field(repr=False, default=0)


def compile_query_to_qcfa(alg: QueryAlgorithm, gadget: Gadget, n: int) -> CompilationReport:
    """Build a two-way machine for the lifted language of h∘g at side length n.

    alg decides h on p = alg.arity query bits; gadget g has width m; inputs
    are split as z_i = g(x-block i, y-block i) with n = p*m.
    """
    validate_algorithm(alg)
    m = gadget.width
    p = alg.arity
    if m < 1:
        raise InputError("gadget width must be >= 1")
    if n != p * m:
        raise InputError(f"side length {n} != arity {p} * gadget width {m}")

    layout = alg.layout
    k = layout.dim
    d_w = layout.work_dim
    p_pad = layout.index_dim
    cache_dim = 1 << m
    dim = cache_dim * k
    t = alg.total_calls

    gflip = np.array(gadget.table(), dtype=np.uint8)
    identity = IdentityOp(dim)

    # the step-level runners' flip operators, built on first use (the
    # compiled runner sweeps with segment_pass and reads none): one
    # cache-flip per x position, one controlled flip per (block, y value)
    @cache
    def xflip(idx):
        return CacheFlipOp(cache_dim, p_pad, d_w, idx // m, 1 << (m - 1 - idx % m))

    @cache
    def yflip(block, v):
        flips = tuple(int(c) for c in range(cache_dim) if gflip[c, v])
        return GadgetFlipOp(cache_dim, p_pad, d_w, block, flips)

    segments = segment_tables(alg, cache_dim)

    nseg = len(alg.segments)
    continue_counts = [int(np.count_nonzero(cs.kind == KIND_CONTINUE)) for cs in segments]

    pass_states = 5 * n + 4 + p * (cache_dim - 1)
    reset_total = sum(continue_counts)
    declared = (3 * n + 1) + t * pass_states + sum(
        2 + r for r in continue_counts
    ) + 2
    formula = (
        "(3n+1) + t*(5n+4+p*(2^m-1)) + sum_s(2+r_s) + 2"
        f" with n={n}, t={t}, p={p}, m={m}, segments={nseg}, resets={reset_total}"
    )
    time_bound = 8 * t * (n + 2) + 4 * (n + 2)

    phase_table = [{"phase": "form-check", "states": 3 * n + 1}]
    for si, seg in enumerate(alg.segments):
        phase_table.append({
            "segment": si,
            "calls": seg.calls,
            "pass_states": pass_states,
            "continue_labels": continue_counts[si],
        })

    calls_of = [seg.calls for seg in alg.segments]

    def theta(state, sym):
        tag = state[0]
        if tag == "u":
            return segments[state[1]].ops[state[2]]
        if tag == "x1" or tag == "x2":
            idx = state[3] - (tag == "x2")       # x2 reads position idx - 1
            return xflip(idx) if sym == "1" and idx >= 0 else identity
        if tag == "y":
            _, si, ui, idx, pref = state
            if idx % m == m - 1 and sym in "01":
                return yflip(idx // m, (pref << 1) | (sym == "1"))
            return identity
        if tag == "meas":
            return segments[state[1]].outcomes.lifted
        if tag == "rst":
            cs = segments[state[1]]
            return cs.reset_op(cs.row(state[2]))
        return identity

    def step(state, sym):
        tag = state[0]
        if tag == "form":
            return _form_step(state, sym, n)
        if tag == "u":
            _, si, ui = state
            if ui < calls_of[si]:
                return ("x1", si, ui, 0), 1
            return ("meas", si), 0
        si, ui = state[1], state[2]
        if tag == "x1":
            if sym not in "01":
                return None
            idx = state[3]
            nxt = ("x1", si, ui, idx + 1) if idx + 1 < n else ("hash", si, ui, 0)
            return nxt, 1
        if tag == "hash":
            j = state[3]
            nxt = ("hash", si, ui, j + 1) if j + 1 < n else ("y", si, ui, 0, 0)
            return nxt, 1
        if tag == "y":
            idx, pref = state[3], state[4]
            if sym not in "01":
                return None
            bit = int(sym == "1")
            pref2 = 0 if idx % m == m - 1 else (pref << 1) | bit
            nxt = ("y", si, ui, idx + 1, pref2) if idx + 1 < n else ("wrap", si, ui)
            return nxt, 1
        if tag == "wrap":
            return ("x2", si, ui, 0), 1
        if tag == "x2":
            idx = state[3]
            nxt = ("x2", si, ui, idx + 1) if idx < n else ("ret", si, ui, 0)
            return nxt, 1
        if tag == "ret":
            j = state[3]
            nxt = ("ret", si, ui, j + 1) if j < 2 * n else ("u", si, ui + 1)
            return nxt, 1
        if tag == "rst":
            cs = segments[si]
            return ("u", cs.next_segment[cs.row(ui)], 0), 0
        return None

    def step_measure(state, sym, label):
        if state[0] != "meas":
            return None
        si = state[1]
        cs = segments[si]
        j = cs.outcomes.rows.get(label)
        if j is None:
            return None
        kind = cs.kind[j]
        if kind == KIND_ACCEPT:
            return ACC, 0
        if kind == KIND_REJECT:
            return REJ, 0
        return ("rst", si, label), 0

    def halting(state):
        if state == ACC:
            return "accept"
        if state == REJ:
            return "reject"
        return None

    states = StateSpace(
        initial=("form", "x", 0),
        halting=halting,
        declared_bound=declared,
        bound_formula=formula,
    )
    machine = TwoWayQcfa(
        name=f"compiled[{alg.name}%{gadget.name}@{n}]",
        states=states,
        quantum_dim=dim,
        theta=theta,
        step=step,
        step_measure=step_measure,
        source={
            "generator": "compiled",
            "algorithm": alg.name,
            "gadget": gadget.name,
            "n": n,
        },
    )
    return CompilationReport(
        machine=machine,
        quantum_basis_count=dim,
        declared_states=declared,
        declared_formula=formula,
        phase_table=phase_table,
        n=n,
        m=m,
        p=p,
        t=t,
        time_bound=time_bound,
        algorithm=alg,
        gadget=gadget,
        segments=segments,
        gflip=gflip,
        k_alg=k,
        cache_dim=cache_dim,
        d_w=d_w,
        p_pad=p_pad,
    )


def _form_step(state, sym, n):
    """Deterministic well-formedness sweep: n bits, n hashes, n bits, $."""
    kind = state[1]
    if kind == "x":
        j = state[2]
        if sym == "¢" and j == 0:
            return ("form", "x", 0), 1
        if sym in "01":
            nxt = ("form", "x", j + 1) if j + 1 < n else ("form", "hash", 0)
            return nxt, 1
        return REJ, 0
    if kind == "hash":
        j = state[2]
        if sym == "#":
            nxt = ("form", "hash", j + 1) if j + 1 < n else ("form", "y", 0)
            return nxt, 1
        return REJ, 0
    if kind == "y":
        j = state[2]
        if sym in "01":
            nxt = ("form", "y", j + 1) if j + 1 < n else ("form", "end")
            return nxt, 1
        return REJ, 0
    if kind == "end":
        if sym == "$":
            return ("u", 0, 0), 1
        return REJ, 0
    return None


def _split_sides(report: CompilationReport, x: str, y: str):
    """x and y as one-lane bit matrices, once they are binary strings of
    the side length."""
    n = report.n
    if len(x) != n or len(y) != n:
        raise InputError(f"sides must have length {n}")
    if set(x) - {"0", "1"} or set(y) - {"0", "1"}:
        raise InputError("sides must be binary strings")
    return tuple(np.frombuffer(side.encode(), dtype=np.uint8)[None] - ord("0")
                 for side in (x, y))


class CompiledRuns(NamedTuple):
    """run_compiled_lanes's row: per ExactRunResult field a compiled run
    fills, one array entry per lane, in lane order."""

    accept_probability: np.ndarray
    t_max: np.ndarray
    t_max_accepting: np.ndarray        # 0 where no branch accepts
    t_max_rejecting: np.ndarray
    visited: np.ndarray
    branch_count: np.ndarray
    crossings_max: np.ndarray


def run_compiled(report: CompilationReport, x: str, y: str) -> ExactRunResult:
    """Exact branch evaluation of the compiled machine on x #^n y: the
    one-lane case of run_compiled_lanes, with Python int and float fields.
    A lone run pays the engine's per-segment numpy calls and the closed
    forms' numpy calls for one lane: 491-495 us per grover_or(6) pair
    (2-vCPU x86 VM, BENCH_lane_blocks.json, lone_run_us)."""
    runs = run_compiled_lanes(report, *_split_sides(report, x, y))
    return ExactRunResult(**{f: a[0].item() for f, a in zip(runs._fields, runs)})


def run_compiled_lanes(report: CompilationReport, x: np.ndarray,
                       y: np.ndarray) -> CompiledRuns:
    """Exact branch evaluation of the compiled machine on every x_i #^n y_i,
    with x and y given as bit matrices (one row of n bits per lane): the
    row's results as arrays, each lane's entries equal to a run on that
    pair alone.

    The segment schedule runs through qquery.run_segments on the machine's
    quantum register alone, every lane at once, one segment_pass per oracle
    call and stacked array; run_query_alg is the same engine on the
    algorithm's own register. The classical walk of a well-formed input is
    the same for every branch, so time, census, and boundary crossings are
    reconstructed from closed forms over each branch's oracle calls and
    resets that mirror the step-level runner exactly (validated against it
    in tests), on the engine's arrays. branch_count is the number of
    halting outcomes the engine kept: (branch, label) pairs of probability
    above BRANCH_PRUNE and weight at least BRANCH_PRUNE whose decision
    halts. qcfa_exact counts halting branches after merging equal ones
    instead, so the two counts differ.
    """
    if not (is_bit_matrix(x, report.n) and is_bit_matrix(y, report.n)) or y.shape != x.shape:
        raise InputError(f"sides must be bit matrices of {report.n} columns")
    masks = flip_masks(x, y, report.m, report.gflip, report.p_pad)
    psi0 = np.zeros(report.quantum_basis_count, dtype=np.complex128)
    psi0[0] = 1.0
    runs = run_segments(report.segments, psi0, masks, report.d_w, report.machine.name,
                        lambda i: f"{bit_string(x[i])}|{bit_string(y[i])}",
                        oracle=segment_pass)
    n, calls, seg_steps = report.n, runs.halted, 6 * report.n + 4
    # 3n+2 steps reach the first unitary; a segment takes 6n+4 steps per
    # oracle call plus 2 (its last unitary and the measurement), a reset 1,
    # so a path of c calls and r resets halts after 3n+4 + c(6n+4) + 3r
    resets = np.arange(calls.shape[2])
    t_kind = np.where(calls >= 0, 3 * n + 4 + calls * seg_steps + 3 * resets, 0).max(axis=2)
    top = calls.max(axis=(1, 2))
    # census: the form check's 3n+1 states; per segment entered, its pass
    # states, last unitary and measurement, and one reset per row continued
    entered = np.array([cs.calls * seg_steps + 2 for cs in report.segments])
    visited = 3 * n + 1 + np.where(runs.ran >= 0, runs.ran + entered, 0).sum(axis=1)
    return CompiledRuns(runs.accept, t_kind.max(axis=1), t_kind[:, 0], t_kind[:, 1], visited,
                        runs.halts, np.where(top >= 0, 2 + 4 * top, 0))


def verify_segment_equivalence(
    alg: QueryAlgorithm,
    report: CompilationReport,
    x: str,
    y: str,
    j: int,
) -> float:
    """Max amplitude deviation between the machine register and the
    algorithm register after j simulated oracle calls.

    Both sides are advanced along the canonical continue path: at every
    intermediate measurement both registers take the first continuing row
    of largest probability in the algorithm's own table (alg.tables) and
    collapse and reset through their segment tables. When no continuing
    row carries probability (possible for one-sided runs that already
    succeeded with certainty), both take the basis state of the lowest
    continuing row. The machine state is compared against (algorithm
    state) in the zero-cache block, zero everywhere else.
    """
    if j < 0 or j > alg.total_calls:
        raise InputError(f"segment index {j} outside [0, {alg.total_calls}]")
    xb, yb = _split_sides(report, x, y)
    z = [
        report.gadget(x[i * report.m : (i + 1) * report.m],
                      y[i * report.m : (i + 1) * report.m])
        for i in range(report.p)
    ]
    k = report.k_alg
    flip = np.nonzero(flip_masks(xb, yb, report.m, report.gflip, report.p_pad))
    marked = np.nonzero(oracle_masks(np.array([z], dtype=np.uint8), alg.layout.index_dim))

    phi = alg.initial_state()
    psi = np.zeros(report.quantum_basis_count, dtype=np.complex128)
    psi[0] = 1.0

    calls_done = 0
    si = 0
    while True:
        ta, tm = alg.tables[si], report.segments[si]
        for ui in range(len(tm.ops)):
            if ui > 0:
                segment_pass(phi[None], marked, alg.layout.work_dim)
                segment_pass(psi[None], flip, report.d_w)
                calls_done += 1
            phi = ta.ops[ui].apply(phi)
            psi = tm.ops[ui].apply(psi)
            if calls_done == j:
                return _deviation(psi, phi, k)
        # j lies beyond this segment: cross its measurement canonically
        prob = ta.outcomes.weights(phi[None])[0]
        prob_m = tm.outcomes.weights(psi[None])[0]
        live = np.flatnonzero(ta.continues & (prob > BRANCH_PRUNE))
        if live.size:
            row = int(live[prob[live].argmax()])          # argmax: the first maximum
            if prob_m[row] <= BRANCH_PRUNE:
                raise SpecError("continuing outcome lost on the machine side")
            p_alg, p_machine = prob[row], prob_m[row]
        else:
            if not ta.outcomes.complete:
                raise UnsupportedStructureError(
                    "no continuing branch has probability mass and the measurement "
                    "outcomes are not basis states"
                )
            rows = np.flatnonzero(ta.continues)
            if not rows.size:
                raise UnsupportedStructureError("no continuing outcome at this measurement")
            row = int(rows[0])
            phi, psi = np.zeros_like(phi), np.zeros_like(psi)
            phi[row] = psi[row] = 1.0
            p_alg = p_machine = 1.0
        phi, psi = _collapse(ta, phi, row, p_alg), _collapse(tm, psi, row, p_machine)
        si = ta.next_segment[row]


def _collapse(cs, state: np.ndarray, row: int, prob: float) -> np.ndarray:
    """state collapsed to continuing row `row`'s outcome of probability prob
    and reset, through segment table cs."""
    (pos,), (vals,) = cs.collapse(state[None], np.array([0]), np.array([row]), np.array([prob]))
    out = np.zeros_like(state)
    out[pos[pos >= 0]] = vals[pos >= 0]
    return out


def _deviation(psi, phi, k) -> float:
    dev = float(np.abs(psi[:k] - phi).max())
    if psi.shape[0] > k:
        dev = max(dev, float(np.abs(psi[k:]).max()))
    return dev
