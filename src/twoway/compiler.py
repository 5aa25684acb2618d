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

import numpy as np

from .automata import ExactRunResult, StateSpace, TwoWayQcfa
from .boolfn import Gadget
from .errors import InputError, SpecError, UnsupportedStructureError
from .kernels import segment_pass
from .ops import CacheFlipOp, CompleteMeasurement, GadgetFlipOp, IdentityOp
from .qquery import (
    KIND_ACCEPT,
    KIND_CONTINUE,
    KIND_REJECT,
    QueryAlgorithm,
    apply_oracle,
    oracle_rows,
    run_segments,
    segment_tables,
    validate_algorithm,
)

__all__ = [
    "CompilationReport",
    "compile_query_to_qcfa",
    "run_compiled",
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
    # internals run_compiled and verify_segment_equivalence read
    segments: list = field(repr=False, default=None)    # CompiledSegment per segment
    gflip: np.ndarray = field(repr=False, default=None)
    k_alg: int = field(repr=False, default=0)
    cache_dim: int = field(repr=False, default=0)
    d_w: int = field(repr=False, default=0)


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

    # the step-level runners' flip operators, built on first use (run_compiled
    # sweeps with segment_pass and reads none): one cache-flip per x position,
    # one controlled flip per (block, y value)
    @cache
    def xflip(idx):
        return CacheFlipOp(cache_dim, p_pad, d_w, idx // m, 1 << (m - 1 - idx % m))

    @cache
    def yflip(block, v):
        flips = tuple(int(c) for c in range(cache_dim) if gflip[c, v])
        return GadgetFlipOp(cache_dim, p_pad, d_w, block, flips)

    segments = segment_tables(alg, cache_dim)

    nseg = len(alg.segments)
    continue_counts = [cs.kind.count(KIND_CONTINUE) for cs in segments]

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
    n = report.n
    if len(x) != n or len(y) != n:
        raise InputError(f"sides must have length {n}")
    if set(x) - {"0", "1"} or set(y) - {"0", "1"}:
        raise InputError("sides must be binary strings")
    xb = np.frombuffer(x.encode(), dtype=np.uint8) - ord("0")
    yv = np.array(
        [int(y[i0 * report.m : (i0 + 1) * report.m], 2) for i0 in range(report.p)],
        dtype=np.int64,
    )
    return xb, yv


def run_compiled(report: CompilationReport, x: str, y: str) -> ExactRunResult:
    """Exact branch evaluation of the compiled machine on x #^n y.

    The segment schedule runs through qquery.run_segments on the machine's
    quantum register alone, one segment_pass per oracle call; run_query_alg
    is the same engine on the algorithm's own register. The classical walk
    of a well-formed input is the same for every branch, so time, census,
    and boundary crossings are reconstructed from closed forms over each
    branch's oracle calls and resets that mirror the step-level runner
    exactly (validated against it in tests). branch_count tallies halting
    measurement outcomes, which may group finer or coarser than the
    step-level runner's merged branch count.
    """
    n, m = report.n, report.m
    xb, yv = _split_sides(report, x, y)
    gflip, d_w = report.gflip, report.d_w

    def oracle(psi):
        segment_pass(psi, xb, yv, m, d_w, gflip)
        return psi

    psi0 = np.zeros(report.quantum_basis_count, dtype=np.complex128)
    psi0[0] = 1.0
    run = run_segments(report.segments, psi0, oracle, report.machine.name)

    # 3n+2 steps reach the first unitary; a segment takes 6n+4 steps per
    # oracle call plus 2 (its last unitary and the measurement), a reset 1,
    # so a path of c calls and r resets halts after 3n+4 + c(6n+4) + 3r
    seg_steps = 6 * n + 4

    def longest(histories) -> int:
        return max((3 * n + 4 + c * seg_steps + 3 * r
                    for h in histories for c, r in h), default=0)

    t_acc, t_rej = longest(run.accepted), longest(run.rejected)
    cross_max = max((2 + 4 * c for h in run.accepted + run.rejected for c, _ in h),
                    default=0)
    # census: the form check's 3n+1 states; per segment entered, its pass
    # states, last unitary and measurement, and one reset per row continued
    visited = 3 * n + 1 + sum(
        report.segments[si].calls * seg_steps + 2 + len(rows)
        for si, rows in run.continued.items()
    )
    return ExactRunResult(
        run.accept_probability, max(t_acc, t_rej), t_acc, t_rej, visited,
        run.halts, set(), True, cross_max,
    )


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
    intermediate measurement the run follows a continuing outcome and its
    reset. The machine state is compared against (algorithm state) in the
    zero-cache block, zero everywhere else.
    """
    if j < 0 or j > alg.total_calls:
        raise InputError(f"segment index {j} outside [0, {alg.total_calls}]")
    n = report.n
    xb, yv = _split_sides(report, x, y)
    z = [
        report.gadget(x[i * report.m : (i + 1) * report.m],
                      y[i * report.m : (i + 1) * report.m])
        for i in range(report.p)
    ]
    k = report.k_alg
    marked = oracle_rows(z)

    phi = alg.initial_state()
    psi = np.zeros(report.quantum_basis_count, dtype=np.complex128)
    psi[0] = 1.0

    calls_done = 0
    si = 0
    while True:
        cs = report.segments[si]
        seg = alg.segments[si]
        for ui in range(len(cs.ops)):
            if ui > 0:
                phi = apply_oracle(alg.layout, marked, phi)
                segment_pass(psi, xb, yv, report.m, report.d_w, report.gflip)
                calls_done += 1
            phi = seg.unitaries[ui].apply(phi)
            psi = cs.ops[ui].apply(psi)
            if calls_done == j:
                return _deviation(psi, phi, k)
        # j lies beyond this segment: cross its measurement canonically
        phi, psi, si = _canonical_continue(seg, cs, phi, psi, k, report)


def _deviation(psi, phi, k) -> float:
    dev = float(np.abs(psi[:k] - phi).max())
    if psi.shape[0] > k:
        dev = max(dev, float(np.abs(psi[k:]).max()))
    return dev


def _canonical_continue(seg, cs, phi, psi, k, report):
    """Pick the continuing outcome of largest probability and collapse both
    sides through it; fall back to the lowest continuing basis outcome when
    no continuing branch carries probability (possible for one-sided runs
    that already succeeded with certainty)."""

    def reset_both(j, phi2, psi2):
        inner = cs.reset(j)
        if inner is not None:
            phi2 = inner.apply(phi2)
        return phi2, cs.reset_op(j).apply(psi2), cs.next_segment[j]

    best = None
    for label, prob, collapsed in seg.measurement.branches(phi):
        j = cs.row(label)
        if cs.kind[j] != KIND_CONTINUE:
            continue
        if best is None or prob > best[1]:
            best = (label, prob, collapsed)
    if best is not None:
        label, _, phi2 = best
        # machine side: same outcome of the lifted measurement
        for lb, _, collapsed_m in cs.outcomes.lifted.branches(psi):
            if lb == label:
                psi2 = collapsed_m
                break
        else:
            raise SpecError("continuing outcome lost on the machine side")
        return reset_both(cs.row(label), phi2, psi2)
    if not isinstance(seg.measurement, CompleteMeasurement):
        raise UnsupportedStructureError(
            "no continuing branch has probability mass and the measurement "
            "outcomes are not basis states"
        )
    for label in range(k):
        if cs.kind[label] == KIND_CONTINUE:
            phi2 = np.zeros(k, dtype=np.complex128)
            phi2[label] = 1.0
            psi2 = np.zeros(report.quantum_basis_count, dtype=np.complex128)
            psi2[label] = 1.0
            return reset_both(label, phi2, psi2)
    raise UnsupportedStructureError("no continuing outcome at this measurement")
