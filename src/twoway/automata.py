"""Two-way finite automata over {0,1,#}: deterministic, probabilistic, and
quantum-classical machines, their runners, and time-space accounting.

Tape model: the payload w sits between end markers as ¢ w $ at positions
0..len(w)+1. A machine with the circular flag set wraps from $ to ¢ on a
right move; otherwise running off either end is a structural error.

Time T of a run is its number of transitions (stationary moves count).
Space S is log2 of the declared classical state bound, plus the number of
qubits for quantum machines. The visited census counts distinct classical
states a transition was taken from, so a machine that halts immediately on
its first step has visited 1 state.

Every runner but qcfa_exact (run_dfa, run_pfa_sample, qcfa_sample and
pfa_exact) walks through one step walker. It follows a machine's certain
transitions until the machine halts or meets a choice: a distribution with
more than one outcome, or a measurement. A sampler draws once at a choice
and walks on; pfa_exact walks on from every outcome of positive probability
and solves the graph of these stretches. Between two choices the run is
deterministic (for a 2QCFA too: its classical control reads only the state
and the symbol), so a configuration that repeats since the last choice
repeats forever, and the walker raises at once instead of running to the
cutoff; and the samplers replay such a stretch from a small per-tape table
after walking it once, keyed on its first state, head position and owner.
A 2QCFA sampler's stretch also keeps a memo from the register's bytes at
its start to the register at its end and the outcomes of the measurement
there, so a trajectory that meets a stretch on a register an earlier one
met it on applies no operator and measures nothing.
On a run split into two ownership regions (commlab's protocol parties), the
head passes to the other party wherever a stretch starts or a step ends
outside its owner's region, and must then lie in the other region.

qcfa_exact keeps its own per-step loop because it merges branches one step
after a reset, where they meet, while a walk stretch by stretch merges them
only at the next measurement, after each has walked the whole segment
(about 10x the transitions on compiled grover_or(16) runs).
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .errors import InputError, NonHaltingError, SpecError, UnsupportedStructureError
from .ops import BRANCH_PRUNE, IdentityOp, Measurement, Op, check_lost_mass, check_norm

LEFT_MARKER = "¢"
RIGHT_MARKER = "$"
PAYLOAD_SYMBOLS = ("0", "1", "#")
DEFAULT_CUTOFF = 10_000_000
CONFIG_NODE_CAP = 1_000_000
_WHOLE_TAPE = ((0, sys.maxsize),) * 2    # the ownership regions of a run that is not split

State = object


@dataclass(frozen=True)
class Tape:
    payload: str
    circular: bool = False

    def __post_init__(self):
        bad = set(self.payload) - set(PAYLOAD_SYMBOLS)
        if bad:
            raise InputError(f"symbols {sorted(bad)} outside the payload alphabet")

    @property
    def length(self) -> int:
        return len(self.payload) + 2

    @property
    def symbols(self) -> tuple[str, ...]:
        """The symbol at every position, end markers included."""
        return (LEFT_MARKER, *self.payload, RIGHT_MARKER)

    def move(self, pos: int, delta: int, name: str, steps: int) -> int:
        """Head position after `delta` from `pos`; `name` and `steps` (the
        transitions taken before this one) only label the error."""
        new = pos + delta
        if delta in (-1, 0, 1) and 0 <= new < self.length:
            return new
        if delta == 1 and self.circular:
            return 0
        raise _move_error(name, steps, pos, delta)


def _move_error(name: str, steps: int, pos: int, delta) -> SpecError:
    """The error for an illegal head move `delta` from `pos` on the
    transition after `steps` completed ones."""
    if delta not in (-1, 0, 1):
        what = f"illegal head move {delta}"
    elif delta == -1:
        what = "head moved left of the left end marker"
    else:
        what = "head moved right of the right end marker"
    return _placed(f"{name}: {what}", steps, pos)


def _placed(message: str, steps: int, pos: int) -> SpecError:
    """message, naming the step after `steps` completed ones and its head position."""
    return SpecError(f"{message} on step {steps + 1} at head position {pos}")


class _Unplaced(SpecError):
    """A transition's error, which the runner that asked for it raises _placed."""


@dataclass(frozen=True)
class StateSpace:
    """Lazily generated classical state space with a declared size bound."""

    initial: State
    halting: Callable[[State], str | None]   # "accept" | "reject" | None
    declared_bound: int
    bound_formula: str

    def __post_init__(self):
        if self.declared_bound < 1:
            raise SpecError("declared state bound must be positive")


@dataclass(frozen=True)
class TwoWayDfa:
    name: str
    states: StateSpace
    step: Callable[[State, str], tuple[State, int]]
    circular: bool = False
    source: dict | None = field(default=None, compare=False)

    kind = "2dfa"
    qubits = 0.0


@dataclass(frozen=True)
class TwoWayPfa:
    """Transitions map (state, symbol) to a finite distribution of
    (probability, state, move) with exact rational probabilities summing to 1.
    A distribution with one certain outcome is a deterministic step; any
    other is a random choice, wherever the machine meets it."""

    name: str
    states: StateSpace
    step: Callable[[State, str], tuple[tuple[Fraction, State, int], ...]]
    circular: bool = False
    source: dict | None = field(default=None, compare=False)

    kind = "2pfa"
    qubits = 0.0


@dataclass(frozen=True)
class TwoWayQcfa:
    """Classical control with a quantum register of dimension quantum_dim.

    theta(state, symbol) yields the quantum action of the step: a unitary Op
    or a Measurement. Unitary steps advance via step(state, symbol); a
    measurement outcome routes through step_measure(state, symbol, outcome).
    """

    name: str
    states: StateSpace
    quantum_dim: int
    theta: Callable[[State, str], Op | Measurement]
    step: Callable[[State, str], tuple[State, int]]
    step_measure: Callable[[State, str, object], tuple[State, int]]
    circular: bool = True
    source: dict | None = field(default=None, compare=False)

    kind = "2qcfa"

    @property
    def qubits(self) -> float:
        return math.log2(self.quantum_dim)

    def initial_vector(self) -> np.ndarray:
        """The register's start: amplitude 1 on basis index 0."""
        psi = np.zeros(self.quantum_dim, dtype=np.complex128)
        psi[0] = 1.0
        return psi


# --- traces and reports -------------------------------------------------------


@dataclass
class RunTrace:
    outcome: str                       # accept | reject (past the cutoff: NonHaltingError)
    steps: int
    visited: int                       # distinct transition-origin states
    final_state: State
    handoffs: list[tuple[int, int]] | None = None   # (step, old owner) of a split run
    accepted_bit: int | None = None    # 1/0 for halting runs
    origins: frozenset = frozenset()


@dataclass
class ExactRunResult:
    accept_probability: float | Fraction
    t_max: int
    t_max_accepting: int               # 0 when no branch accepts
    t_max_rejecting: int
    visited: int
    # pfa_exact: outcomes of positive probability at the choices met (1 with
    # none); qcfa_exact: halting branches after merging; run_compiled: the
    # kept halting outcomes
    branch_count: int
    origin_states: set = field(default_factory=set)
    time_bounded: bool = True          # False: cyclic chain, no worst-case time
    crossings_max: int | None = None   # only from run_compiled, which counts boundary crossings


# --- the step walker -----------------------------------------------------------

_CHOICE = object()     # marks a transition that is a choice, not a certain step


def _undefined(machine, state: State, sym: str, steps: int, pos: int) -> SpecError:
    return _placed(f"{machine.name}: undefined transition at {(state, sym)}", steps, pos)


def _walk(machine, symbols, transition, cutoff, origins, state, pos, steps,
          regions=_WHOLE_TAPE, handoffs=()):
    """Follow `machine` on the tape `symbols` from `state` at head position
    `pos`, `steps` transitions in, until it halts or meets a choice.

    `transition(state, symbol)` is a certain step (state, move), None where
    the machine defines none, or (_CHOICE, choice) for a random choice or a
    measurement. Returns (state, pos, steps, choice), choice None when
    `state` halts; at a choice, `state` and `pos` are where it is made and
    `steps` does not count it.

    The stretch walked is deterministic, so a configuration that repeats in
    it repeats forever: the walk raises on it at once, before the step
    cutoff. Every state a transition is taken from joins `origins`, and
    every hand-off between the two ownership `regions` joins `handoffs`
    (_hand_off, where the walk starts and after every step).
    """
    last = len(symbols) - 1
    circular = machine.circular
    halting = machine.states.halting
    seen: set = set()
    seen_add = seen.add
    first = steps                  # where the stretch began
    lo, hi = _hand_off(regions, handoffs, pos, steps)
    while True:
        if halting(state) is not None:
            return state, pos, steps, None
        config = (state, pos)
        seen_add(config)
        if len(seen) == steps - first:  # one configuration per step: it repeats
            raise NonHaltingError(
                f"{machine.name}: configuration repeats, machine cannot halt",
                configuration=config,
            )
        if steps >= cutoff:
            raise NonHaltingError(
                f"{machine.name}: step cutoff {cutoff} exceeded", configuration=config
            )
        origins.add(state)
        sym = symbols[pos]
        try:
            nxt = transition(state, sym)
        except _Unplaced as exc:
            raise _placed(str(exc), steps, pos) from None
        if nxt is None:
            raise _undefined(machine, state, sym, steps, pos)
        nxt_state, mv = nxt
        if nxt_state is _CHOICE:
            return state, pos, steps, mv
        state = nxt_state
        # Tape.move, inlined
        if mv == 1:
            if pos < last:
                pos += 1
            elif circular:
                pos = 0
            else:
                raise _move_error(machine.name, steps, pos, mv)
        elif mv == -1:
            if pos == 0:
                raise _move_error(machine.name, steps, pos, mv)
            pos -= 1
        elif mv != 0:
            raise _move_error(machine.name, steps, pos, mv)
        steps += 1
        if not lo <= pos <= hi:
            lo, hi = _hand_off(regions, handoffs, pos, steps)


def _hand_off(regions, handoffs, pos: int, steps: int) -> tuple[int, int]:
    """The owner's region for the head at `pos` after `steps` transitions (Bob
    owns after an odd number of `handoffs`). A head outside it hands off, with
    (steps, old owner), and must lie in the other region, unread by the first."""
    owner = len(handoffs) & 1
    lo, hi = regions[owner]
    if lo <= pos <= hi:
        return lo, hi
    handoffs.append((steps, owner))
    lo, hi = regions[1 - owner]
    if lo <= pos <= hi:
        return lo, hi
    raise InputError(f"head position {pos} lies outside both regions {regions}")


def _trace(machine, state, steps: int, origins, handoffs) -> RunTrace:
    halt = machine.states.halting(state)
    return RunTrace(
        halt, steps, len(origins), state, handoffs,
        1 if halt == "accept" else 0, frozenset(origins),
    )


# --- stretch tables ----------------------------------------------------------------

_STRETCH_TAPES = 4     # tapes whose stretch tables are kept; the oldest goes first
# register cells (complex entries) the register memos of one tape may hold,
# 256 KiB of amplitudes; past them its stretches replay their operators. A
# walkers round's tapes hold at most about 1,200 each
_MEMO_CELLS = 1 << 14
_stretches: dict = {}  # (id(machine), payload, regions) -> (machine, tape, table, room)
# a table maps a stretch's first (state, pos, owner) to its end (state, pos),
# length, origin states, choice (None at a halt), a 2QCFA's (op, where)
# pairs, hand-offs as (step offset, old owner), and a 2QCFA's register memo
# (_QcfaRegister; a 2PFA's stays empty); room is the tape's memo cells left,
# in a list the tape's runs share


def _sample(machine, payload: str, transition, choose, cutoff: int, regions,
            register=None) -> RunTrace:
    """One sampled trajectory of `machine` on `payload`, stretch by stretch:
    from the start or a draw (`choose(state, symbol, choice)`) to the halt
    or the next choice. A stretch is deterministic, so it is stepped once
    per machine, tape, regions and first (state, pos, owner), then replayed
    from the table. A 2QCFA `register` replays it from the stretch's memo
    when the memo holds the register's bytes at the stretch's start, and
    otherwise applies its operators one by one with their norm checks and
    stores the result while the tape's _MEMO_CELLS last. A stretch that
    could pass `cutoff` is stepped. An entry holds its machine, so no other
    can take its id, and its memos go with it."""
    key = (id(machine), payload, regions)
    cached = _stretches.get(key) or (machine, Tape(payload, machine.circular), {},
                                     [_MEMO_CELLS])
    if key not in _stretches:
        if len(_stretches) >= _STRETCH_TAPES:
            del _stretches[next(iter(_stretches))]
        _stretches[key] = cached
    _, tape, table, room = cached
    if register is not None:
        register.room = room
    symbols = tape.symbols
    handoffs: list = []
    origins: set = set()
    state, pos, steps = machine.states.initial, 0, 0
    while True:
        start = (state, pos, len(handoffs) & 1)
        stretch = table.get(start)
        if stretch is None or steps + stretch[2] >= cutoff:
            part, mark = set(), len(handoffs)
            if register is not None:
                register.log = []
                begun = register.psi.tobytes()
            end, end_pos, end_steps, choice = _walk(
                machine, symbols, transition, cutoff, part, state, pos, steps,
                regions or _WHOLE_TAPE, handoffs)
            stretch = table[start] = (
                end, end_pos, end_steps - steps, frozenset(part), choice,
                None if register is None else tuple(register.log),
                tuple((at - steps, old) for at, old in handoffs[mark:]),
                {} if stretch is None else stretch[7])
            if register is not None:
                register.remember(stretch[7], begun)
        else:
            if register is not None:
                register.replay(stretch[5], stretch[7])
            handoffs += [(steps + at, old) for at, old in stretch[6]]
        state, pos, k, part, choice, _, _, _ = stretch
        origins |= part
        steps += k
        if choice is None:
            return _trace(machine, state, steps, origins, handoffs if regions else None)
        try:
            state, mv = choose(state, symbols[pos], choice)
        except _Unplaced as exc:
            raise _placed(str(exc), steps, pos) from None
        pos = tape.move(pos, mv, machine.name, steps)
        steps += 1


# --- deterministic runner -----------------------------------------------------


def run_dfa(
    machine: TwoWayDfa,
    payload: str,
    cutoff: int = DEFAULT_CUTOFF,
    regions=None,
) -> RunTrace:
    """Run to halt. A revisited (state, position) configuration means the
    deterministic machine loops forever and raises immediately. With two
    ownership `regions` ((lo, hi) head intervals), the trace's `handoffs`
    are the run's (step, old owner) hand-offs between them."""
    origins: set = set()
    handoffs: list = []
    state, _, steps, _ = _walk(machine, Tape(payload, machine.circular).symbols, machine.step,
                               cutoff, origins, machine.states.initial, 0, 0,
                               regions or _WHOLE_TAPE, handoffs)
    return _trace(machine, state, steps, origins, handoffs if regions else None)


# --- probabilistic runners ------------------------------------------------------


def _pfa_transition(machine: TwoWayPfa):
    """The walker's transition for a 2PFA: the outcome of a certain
    single-outcome distribution, else the checked distribution as a choice
    (None where the machine defines none)."""
    step = machine.step

    def transition(state, sym):
        dist = step(state, sym)
        if dist is None:
            return None
        if len(dist) == 1:
            p, nxt_state, mv = dist[0]
            if p == 1:
                return nxt_state, mv
        total = sum((p for p, _, _ in dist), Fraction(0))
        if total != 1:
            raise _Unplaced(
                f"{machine.name}: probabilities at {(state, sym)} sum to {total}, not 1"
            )
        if any(p < 0 for p, _, _ in dist):
            raise _Unplaced(f"{machine.name}: negative probability at {(state, sym)}")
        return _CHOICE, dist

    return transition


def run_pfa_sample(
    machine: TwoWayPfa,
    payload: str,
    seed: int | random.Random = 0,
    cutoff: int = DEFAULT_CUTOFF,
    regions=None,
) -> RunTrace:
    """One seeded trajectory: one draw per random choice."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    def choose(state, sym, dist):
        r = rng.random()
        acc = 0.0
        for p, nxt_state, mv in dist:
            acc += float(p)
            if r < acc:
                return nxt_state, mv
        # past the float total: the last outcome of positive probability
        return next((nxt_state, mv) for p, nxt_state, mv in reversed(dist) if p)

    return _sample(machine, payload, _pfa_transition(machine), choose, cutoff, regions)


def pfa_exact(
    machine: TwoWayPfa, payload: str, cutoff: int = DEFAULT_CUTOFF
) -> ExactRunResult:
    """Absorbing-chain solve on the stretch graph.

    A node is where a deterministic stretch starts: the initial
    configuration, or the (state, head position) an outcome of a random
    choice lands in. The step walker walks each node once, to a halt or a
    choice, with the cutoff counted along the path that found the node; the
    choice's outcomes of positive probability are the node's successors,
    each edge its stretch's length + 1 steps long. Acyclic graphs get an
    exact backward propagation, and their longest run must not exceed
    `cutoff` steps; cyclic graphs of at most 2,000 nodes get rational
    Gaussian elimination (no worst-case time exists); anything larger is
    refused. No step recurses, so a run's depth is bounded by memory, not
    by the interpreter's stack.
    """
    tape = Tape(payload, machine.circular)
    symbols = tape.symbols
    transition = _pfa_transition(machine)
    origins: set = set()
    start = (machine.states.initial, 0)
    nodes: dict = {}              # node -> (stretch length, halt or None, [(p, successor)])
    stack = [(start, 0)]          # (node, steps on the path that found it)
    while stack:
        node, steps = stack.pop()
        if node in nodes:
            continue
        if len(nodes) >= CONFIG_NODE_CAP:
            raise UnsupportedStructureError(
                f"{machine.name}: stretch graph exceeds {CONFIG_NODE_CAP} nodes"
            )
        state, pos, end, dist = _walk(machine, symbols, transition, cutoff, origins,
                                      *node, steps)
        outs = []
        for p, nxt_state, mv in dist or ():
            if p:
                nxt = (nxt_state, tape.move(pos, mv, machine.name, end))
                outs.append((p, nxt))
                stack.append((nxt, end + 1))
        halt = None if dist else machine.states.halting(state)
        nodes[node] = (end - steps, halt, outs)

    # One iterative post-order walk: a successor still on the walk's path
    # closes a cycle; otherwise every node is solved once all its
    # successors are.
    accept_p: dict = {}
    t_long: dict = {}
    t_acc: dict = {}               # -1: no accepting run from here
    t_rej: dict = {}
    on_path = {start}
    walk = [(start, iter(nodes[start][2]))]
    while walk:
        node, successors = walk[-1]
        for _, nxt in successors:
            if nxt not in accept_p:
                break
        else:
            walk.pop()
            on_path.remove(node)
            k, halt, outs = nodes[node]
            if halt is not None:
                accept_p[node] = Fraction(halt == "accept")
                t_long[node] = k
                t_acc[node], t_rej[node] = (k, -1) if halt == "accept" else (-1, k)
                continue
            total = Fraction(0)
            longest = la = lr = -1
            for p, nxt in outs:
                total += p * accept_p[nxt]
                longest = max(longest, t_long[nxt])
                la = max(la, t_acc[nxt])
                lr = max(lr, t_rej[nxt])
            k += 1                 # the choice's own step
            accept_p[node] = total
            t_long[node] = k + longest
            t_acc[node] = la if la < 0 else k + la
            t_rej[node] = lr if lr < 0 else k + lr
            continue
        if nxt in on_path:
            break
        on_path.add(nxt)
        walk.append((nxt, iter(nodes[nxt][2])))

    branches = max(1, sum(len(outs) for _, _, outs in nodes.values()))
    if not walk:                   # the walk met no cycle
        if t_long[start] > cutoff:
            raise NonHaltingError(
                f"{machine.name}: longest run of {t_long[start]} steps exceeds "
                f"the step cutoff {cutoff}",
                configuration=start,
            )
        return ExactRunResult(
            accept_p[start], t_long[start], max(0, t_acc[start]), max(0, t_rej[start]),
            len(origins), branches, origins,
        )

    if len(nodes) > 2000:
        raise UnsupportedStructureError(
            f"{machine.name}: cyclic stretch graph with {len(nodes)} nodes "
            "is beyond the exact rational solve"
        )
    # x_node = sum p * x_next, absorbing accept = 1 / reject = 0
    index = {node: k for k, node in enumerate(nodes)}
    size = len(nodes)
    aug = [[Fraction(0)] * (size + 1) for _ in range(size)]
    for node, k in index.items():
        aug[k][k] = Fraction(1)
        _, halt, outs = nodes[node]
        if halt == "accept":
            aug[k][size] = Fraction(1)
        for p, nxt in outs:
            aug[k][index[nxt]] -= p
    for col in range(size):
        pivot = next((r for r in range(col, size) if aug[r][col] != 0), None)
        if pivot is None:
            raise UnsupportedStructureError(
                f"{machine.name}: configuration chain is singular (machine may not halt)"
            )
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(size):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    # cyclic graphs have no finite worst-case run length, so the probability is
    # exact but the time fields are meaningless; mark them unbounded
    return ExactRunResult(
        aug[index[start]][size], 0, 0, 0, len(origins), branches, origins,
        time_bounded=False,
    )


# --- quantum-classical runners --------------------------------------------------


class _QcfaRegister:
    """The quantum register of a 2QCFA run and the steps that drive it.

    transition() is the walker's: a unitary action is applied to `psi` (its
    norm checked and, if `log` is a list, logged unless it is the identity)
    and the classical step is machine.step's (None where undefined); a
    measurement is a choice and leaves `psi` alone. route() is where a
    measurement outcome goes.

    A sampler's stretch keeps a memo: the register's bytes at the stretch's
    start map to [register at its end, outcomes of the measurement there or
    None]. replay() takes the end from the memo when it holds `psi`'s bytes,
    applying no operator and checking no norm: the stored end passed every
    check on those bytes, and numpy gives the same output bytes for the same
    input. Otherwise it applies the log again with its norm checks and, like
    a stepped stretch, remember()s the end. measure() then takes the
    outcomes from the memo entry `ending` or computes and stores them.
    Stored registers are only ever handed out as copies, since some
    operators write into their input. Storing stops once the tape's `room`
    (a one-entry list of cells left) would run out; past it `ending` is None
    and the run replays and measures as if there were no memo."""

    __slots__ = ("machine", "psi", "log", "ending", "room")

    def __init__(self, machine: TwoWayQcfa, psi: np.ndarray):
        self.machine = machine
        self.psi = psi
        self.log = None
        self.ending = None
        self.room = None

    def transition(self, state: State, sym: str):
        machine = self.machine
        action = machine.theta(state, sym)
        if action is None:
            raise _Unplaced(f"{machine.name}: no quantum action at {(state, sym)}")
        if isinstance(action, Measurement):
            return _CHOICE, action
        if not isinstance(action, IdentityOp):
            where = f"at {(state, sym)}"
            psi = action.apply(self.psi)
            check_norm(psi, where)
            self.psi = psi
            if self.log is not None:
                self.log.append((action, where))
        return machine.step(state, sym)

    def replay(self, ops, memo: dict) -> None:
        begun = self.psi.tobytes()
        ending = memo.get(begun)
        if ending is not None:
            self.psi = ending[0].copy()
            self.ending = ending
            return
        psi = self.psi
        for action, where in ops:
            psi = action.apply(psi)
            check_norm(psi, where)
        self.psi = psi
        self.remember(memo, begun)

    def remember(self, memo: dict, begun: bytes) -> None:
        """Store `psi` in `memo` as the end of a stretch begun on the
        register bytes `begun`, if the tape has room for it."""
        self.ending = None
        if self.room[0] >= self.psi.size:
            self.room[0] -= self.psi.size
            self.ending = memo[begun] = [self.psi.copy(), None]

    def measure(self, measurement: Measurement):
        """The (label, p, collapsed) outcomes of `measurement` on `psi`: from
        the memo entry of the stretch just run when it holds them, else all
        of them, stored there if the tape has room; with no entry, lazily."""
        ending = self.ending
        if ending is None:
            return measurement.branches(self.psi)
        if ending[1] is None:
            outcomes = list(measurement.branches(self.psi))
            cells = len(outcomes) * self.psi.size
            if self.room[0] < cells:
                return outcomes
            self.room[0] -= cells
            ending[1] = outcomes
        return ending[1]

    def route(self, state: State, sym: str, label) -> tuple[State, int]:
        nxt = self.machine.step_measure(state, sym, label)
        if nxt is None:
            raise _Unplaced(f"{self.machine.name}: no route for outcome "
                            f"{label!r} at {(state, sym)}")
        return nxt


def qcfa_exact(
    machine: TwoWayQcfa, payload: str, cutoff: int = DEFAULT_CUTOFF
) -> ExactRunResult:
    """Enumerate all measurement branches exactly.

    Branches with the same classical state and head position and a
    bitwise-equal quantum register evolve identically from that point on,
    so they are merged after every step (the branch engine's rule); this
    keeps restart-style machines (measure, reset, retry) linear instead of
    exponential in the number of rounds. Weights below BRANCH_PRUNE are
    pruned.

    Each branch carries the (state, position) configurations it passed
    since its last measurement (a merged branch keeps the first one's): a
    configuration that repeats there repeats forever, as in the step
    walker, and raises at once instead of running to the cutoff.

    This loop is not the step walker because on compiled machines every
    merge happens one step after a reset, where the reset's branches meet
    on one register; walked stretch by stretch to the next measurement they
    would meet only there, and five compiled grover_or(16) pairs took
    105,848 transitions that way against 10,746 here.
    """
    tape = Tape(payload, machine.circular)
    symbols = tape.symbols
    origins: set = set()
    accept = total = 0.0
    t_acc = t_rej = 0
    branch_count = 0
    # globally merged frontier, one step per iteration
    pending: dict = {}

    def insert(w, state, pos, psi, steps, passed):
        if w < BRANCH_PRUNE:
            return
        key = (state, pos, psi.tobytes())
        prev = pending.get(key)
        if prev is None:
            pending[key] = (w, psi, steps, passed)
        else:
            w0, psi_0, st0, passed_0 = prev
            pending[key] = (w0 + w, psi_0, max(st0, steps), passed_0)

    register = _QcfaRegister(machine, None)
    insert(1.0, machine.states.initial, 0, machine.initial_vector(), 0, set())
    while pending:
        key = next(iter(pending))
        state, pos, _ = key
        weight, psi, steps, passed = pending.pop(key)
        halt = machine.states.halting(state)
        if halt is not None:
            branch_count += 1
            total += weight
            if halt == "accept":
                accept += weight
                t_acc = max(t_acc, steps)
            else:
                t_rej = max(t_rej, steps)
            continue
        config = (state, pos)
        if config in passed:
            raise NonHaltingError(
                f"{machine.name}: configuration repeats, machine cannot halt",
                configuration=config,
            )
        passed.add(config)          # a set moves on with its branch: one owner
        if steps >= cutoff:
            raise NonHaltingError(
                f"{machine.name}: step cutoff {cutoff} exceeded", configuration=config
            )
        sym = symbols[pos]
        register.psi = psi
        try:
            nxt = register.transition(state, sym)
            origins.add(state)
            if nxt is None:
                raise _undefined(machine, state, sym, steps, pos)
            nxt_state, mv = nxt
            if nxt_state is not _CHOICE:
                insert(weight, nxt_state, tape.move(pos, mv, machine.name, steps),
                       register.psi, steps + 1, passed)
                continue
            for label, p, collapsed in mv.branches(psi):
                nxt_state, mv = register.route(state, sym, label)
                insert(weight * p, nxt_state, tape.move(pos, mv, machine.name, steps),
                       collapsed, steps + 1, set())
        except _Unplaced as exc:
            raise _placed(str(exc), steps, pos) from None

    check_lost_mass(total, lambda: machine.name)
    return ExactRunResult(
        min(accept, 1.0), max(t_acc, t_rej), t_acc, t_rej, len(origins),
        branch_count, origins,
    )


def qcfa_sample(
    machine: TwoWayQcfa,
    payload: str,
    seed: int | random.Random = 0,
    cutoff: int = DEFAULT_CUTOFF,
    regions=None,
) -> RunTrace:
    """One seeded trajectory: one draw per measurement."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    register = _QcfaRegister(machine, machine.initial_vector())

    def choose(state, sym, measurement):
        r = rng.random()
        acc = 0.0
        # past the float total: the last outcome
        for label, p, collapsed in register.measure(measurement):
            acc += p
            if r < acc:
                break
        register.psi = collapsed.copy()     # the memo may hold collapsed
        return register.route(state, sym, label)

    return _sample(machine, payload, register.transition, choose, cutoff, regions,
                   register)


# --- explicit (table-backed) machines --------------------------------------------


def _table_space(initial: State, accept: frozenset, reject: frozenset,
                 states: set) -> StateSpace:
    if accept & reject:
        raise SpecError("accepting and rejecting states overlap")

    def halting(s):
        if s in accept:
            return "accept"
        if s in reject:
            return "reject"
        return None

    return StateSpace(initial, halting, len(states), str(len(states)))


def dfa_from_table(
    name: str,
    table: dict[tuple[State, str], tuple[State, int]],
    initial: State,
    accept: set,
    reject: set,
    circular: bool = False,
) -> TwoWayDfa:
    accept, reject = frozenset(accept), frozenset(reject)
    states = {initial} | accept | reject
    for (s, _), (s2, _) in table.items():
        states.add(s)
        states.add(s2)
    space = _table_space(initial, accept, reject, states)
    return TwoWayDfa(
        name,
        space,
        lambda s, sym: table.get((s, sym)),
        circular,
        source={
            "kind": "2dfa",
            "explicit": True,
            "initial": initial,
            "accept": sorted(accept, key=repr),
            "reject": sorted(reject, key=repr),
            "table": table,
            "circular": circular,
        },
    )


def pfa_from_table(
    name: str,
    table: dict[tuple[State, str], list[tuple[Fraction, State, int]]],
    initial: State,
    accept: set,
    reject: set,
    circular: bool = False,
) -> TwoWayPfa:
    accept, reject = frozenset(accept), frozenset(reject)
    states = {initial} | accept | reject
    for (s, _), dist in table.items():
        states.add(s)
        for _, s2, _ in dist:
            states.add(s2)
    space = _table_space(initial, accept, reject, states)
    return TwoWayPfa(
        name,
        space,
        lambda s, sym: tuple(table.get((s, sym), ())) or None,
        circular,
        source={
            "kind": "2pfa",
            "explicit": True,
            "initial": initial,
            "accept": sorted(accept, key=repr),
            "reject": sorted(reject, key=repr),
            "table": table,
            "circular": circular,
        },
    )
