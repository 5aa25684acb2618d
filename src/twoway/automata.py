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

Every trajectory runner (run_dfa, run_pfa_sample, qcfa_sample, and the
one-shot exact 2PFA runner) walks through one step walker. It follows a
machine's certain transitions until the machine halts or meets a choice: a
distribution with more than one outcome, or a measurement. A sampler draws
once at a choice and walks on. Between two choices the run is deterministic
(for a 2QCFA too: its classical control reads only the state and the
symbol), so a configuration that repeats since the last choice repeats
forever, and the walker raises at once instead of running to the cutoff;
and the samplers replay such a stretch from a small per-tape table after
walking it once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InputError, NonHaltingError, SpecError, UnsupportedStructureError
from .ops import BRANCH_PRUNE, IdentityOp, Measurement, Op, check_lost_mass, check_norm

LEFT_MARKER = "¢"
RIGHT_MARKER = "$"
PAYLOAD_SYMBOLS = ("0", "1", "#")
DEFAULT_CUTOFF = 10_000_000
CONFIG_NODE_CAP = 1_000_000

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
    return SpecError(f"{name}: {what} on step {steps + 1} at head position {pos}")


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

    one_shot marks machines that consume all randomness in one designated
    branching step (every other reachable transition is deterministic)."""

    name: str
    states: StateSpace
    step: Callable[[State, str], tuple[tuple[Fraction, State, int], ...]]
    circular: bool = False
    one_shot: bool = False
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
    initial_quantum: int = 0
    circular: bool = True
    source: dict | None = field(default=None, compare=False)

    kind = "2qcfa"

    @property
    def qubits(self) -> float:
        return math.log2(self.quantum_dim)

    def initial_vector(self) -> np.ndarray:
        psi = np.zeros(self.quantum_dim, dtype=np.complex128)
        psi[self.initial_quantum] = 1.0
        return psi


# --- traces and reports -------------------------------------------------------


@dataclass
class RunTrace:
    outcome: str                       # accept | reject | cutoff
    steps: int
    visited: int                       # distinct transition-origin states
    final_state: State
    positions: list[int] | None = None
    accepted_bit: int | None = None    # 1/0 for halting runs
    origins: frozenset = frozenset()


@dataclass
class ExactRunResult:
    accept_probability: float | Fraction
    t_max: int
    t_max_accepting: int               # 0 when no branch accepts
    t_max_rejecting: int
    visited: int
    branch_count: int
    origin_states: set = field(default_factory=set)
    time_bounded: bool = True          # False: cyclic chain, no worst-case time
    crossings_max: int | None = None   # only from run_compiled, which counts boundary crossings


@dataclass
class CostReport:
    machine: str
    inputs_evaluated: int
    t_max: int
    t_max_accepting: int
    t_max_rejecting: int
    s_declared: float
    s_visited: float
    ts: float
    declared_bound: int
    visited_count: int

    @staticmethod
    def from_runs(machine, t_acc: int, t_rej: int, visited: set, inputs: int) -> "CostReport":
        t_max = max(t_acc, t_rej)
        bound = machine.states.declared_bound
        visited_count = len(visited)
        s_declared = machine.qubits + math.log2(bound)
        s_visited = machine.qubits + math.log2(max(1, visited_count))
        if s_visited > s_declared:
            raise SpecError(
                f"visited census {visited_count} exceeds the declared bound {bound}"
            )
        return CostReport(
            machine=machine.name,
            inputs_evaluated=inputs,
            t_max=t_max,
            t_max_accepting=t_acc,
            t_max_rejecting=t_rej,
            s_declared=s_declared,
            s_visited=s_visited,
            ts=t_max * s_declared,
            declared_bound=bound,
            visited_count=visited_count,
        )


# --- the step walker -----------------------------------------------------------

_CHOICE = object()     # marks a transition that is a choice, not a certain step


def _undefined(machine, state: State, sym: str) -> SpecError:
    return SpecError(f"{machine.name}: undefined transition at {(state, sym)}")


def _walk(machine, symbols, transition, cutoff, origins, positions, state, pos, steps):
    """Follow `machine` on the tape `symbols` from `state` at head position
    `pos`, `steps` transitions in, until it halts or meets a choice.

    `transition(state, symbol)` is a certain step (state, move), None where
    the machine defines none, or (_CHOICE, choice) for a random choice or a
    measurement. Returns (state, pos, steps, choice), choice None when
    `state` halts; at a choice, `state` and `pos` are where it is made and
    `steps` does not count it.

    The stretch walked is deterministic, so a configuration that repeats in
    it repeats forever: the walk raises on it at once, before the step
    cutoff. Every state a transition is taken from joins `origins`; every
    head position after a step joins `positions`, unless that is None.
    """
    last = len(symbols) - 1
    circular = machine.circular
    halting = machine.states.halting
    seen: set = set()
    seen_add = seen.add
    first = steps                  # where the stretch began
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
        nxt = transition(state, sym)
        if nxt is None:
            raise _undefined(machine, state, sym)
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
        if positions is not None:
            positions.append(pos)


def _trace(machine, state, steps: int, origins, positions) -> RunTrace:
    halt = machine.states.halting(state)
    return RunTrace(
        halt, steps, len(origins), state, positions,
        1 if halt == "accept" else 0, frozenset(origins),
    )


# --- stretch tables ----------------------------------------------------------------

_STRETCH_TAPES = 4     # tapes whose stretch tables are kept; the oldest goes first
_stretches: dict = {}  # (id(machine), payload) -> (machine, tape, table)
# a table maps a stretch's first (state, pos) to (state, pos, steps, origins,
# choice, operators): where it ends, its length, the states it steps from,
# the choice it ends in (None at a halt), and a 2QCFA's (op, where) pairs


def _sample(machine, payload: str, transition, choose, cutoff: int,
            record_positions: bool, register=None) -> RunTrace:
    """One sampled trajectory of `machine` on `payload`, stretch by stretch:
    from the start or a draw (`choose(state, symbol, choice)`) to the halt
    or the next choice. A stretch is deterministic, so it is stepped once
    per machine, tape and first (state, pos), then replayed from the table,
    a 2QCFA `register` applying its operators one by one with their norm
    checks. A stretch that could pass `cutoff`, or any of a run that records
    positions, is stepped, and a recording run leaves the tables as they
    are. An entry holds its machine, so no other can take its id."""
    key = (id(machine), payload)
    cached = _stretches.get(key) or (machine, Tape(payload, machine.circular), {})
    if key not in _stretches and not record_positions:
        if len(_stretches) >= _STRETCH_TAPES:
            del _stretches[next(iter(_stretches))]
        _stretches[key] = cached
    _, tape, table = cached
    symbols = tape.symbols
    positions = [0] if record_positions else None
    origins: set = set()
    state, pos, steps = machine.states.initial, 0, 0
    while True:
        if record_positions:
            state, pos, steps, choice = _walk(
                machine, symbols, transition, cutoff, origins, positions, state, pos, steps)
        else:
            stretch = table.get((state, pos))
            if stretch is None or steps + stretch[2] >= cutoff:
                part: set = set()
                if register is not None:
                    register.log = []
                end, end_pos, end_steps, choice = _walk(
                    machine, symbols, transition, cutoff, part, None, state, pos, steps)
                stretch = table[state, pos] = (
                    end, end_pos, end_steps - steps, frozenset(part), choice,
                    None if register is None else tuple(register.log))
            elif register is not None:
                register.replay(stretch[5])
            state, pos, k, part, choice, _ = stretch
            origins |= part
            steps += k
        if choice is None:
            return _trace(machine, state, steps, origins, positions)
        state, mv = choose(state, symbols[pos], choice)
        pos = tape.move(pos, mv, machine.name, steps)
        steps += 1
        if positions is not None:
            positions.append(pos)


# --- deterministic runner -----------------------------------------------------


def run_dfa(
    machine: TwoWayDfa,
    payload: str,
    cutoff: int = DEFAULT_CUTOFF,
    record_positions: bool = False,
) -> RunTrace:
    """Run to halt. A revisited (state, position) configuration means the
    deterministic machine loops forever and raises immediately."""
    origins: set = set()
    positions = [0] if record_positions else None
    state, _, steps, _ = _walk(machine, Tape(payload, machine.circular).symbols, machine.step,
                               cutoff, origins, positions, machine.states.initial, 0, 0)
    return _trace(machine, state, steps, origins, positions)


# --- probabilistic runners ------------------------------------------------------


def _pfa_distribution(machine: TwoWayPfa, state: State, sym: str, dist):
    """`dist`, the machine's distribution at (state, sym), once checked."""
    if dist is None:
        raise _undefined(machine, state, sym)
    if len(dist) == 1 and dist[0][0] == 1:
        return dist                 # one certain outcome: nothing to sum
    total = sum((p for p, _, _ in dist), Fraction(0))
    if total != 1:
        raise SpecError(
            f"{machine.name}: probabilities at {(state, sym)} sum to {total}, not 1"
        )
    if any(p < 0 for p, _, _ in dist):
        raise SpecError(f"{machine.name}: negative probability at {(state, sym)}")
    return dist


def _pfa_transition(machine: TwoWayPfa):
    """The walker's transition for a 2PFA: the outcome of a certain
    single-outcome distribution, else the checked distribution as a choice."""
    step = machine.step

    def transition(state, sym):
        dist = step(state, sym)
        if dist is not None and len(dist) == 1:
            p, nxt_state, mv = dist[0]
            if p == 1:
                return nxt_state, mv
        return _CHOICE, _pfa_distribution(machine, state, sym, dist)

    return transition


def run_pfa_sample(
    machine: TwoWayPfa,
    payload: str,
    seed: int | random.Random = 0,
    cutoff: int = DEFAULT_CUTOFF,
    record_positions: bool = False,
) -> RunTrace:
    """One seeded trajectory: one draw per random choice."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)

    def choose(state, sym, dist):
        r = rng.random()
        acc = 0.0
        for p, nxt_state, mv in dist:   # past the float total: the last outcome
            acc += float(p)
            if r < acc:
                break
        return nxt_state, mv

    return _sample(machine, payload, _pfa_transition(machine), choose, cutoff,
                   record_positions)


def _pfa_exact_one_shot(machine: TwoWayPfa, tape: Tape, cutoff: int) -> ExactRunResult:
    """Walk to the one random choice, then walk each of its outcomes to a
    halt; a second choice breaks the one-shot annotation."""
    origins: set = set()
    symbols = tape.symbols
    transition = _pfa_transition(machine)

    def walk(state, pos, steps):
        return _walk(machine, symbols, transition, cutoff, origins, None,
                     state, pos, steps)

    state, pos, steps, dist = walk(machine.states.initial, 0, 0)
    ends = [(Fraction(1), state, steps)] if dist is None else []
    for p, nxt_state, mv in dist or ():
        if p == 0:
            continue
        end, end_pos, end_steps, second = walk(
            nxt_state, tape.move(pos, mv, machine.name, steps), steps + 1
        )
        if second is not None:
            raise SpecError(
                f"{machine.name}: one-shot annotation violated, second branching at {end_pos}"
            )
        ends.append((p, end, end_steps))
    accept = Fraction(0)
    t_acc = t_rej = 0
    for p, end, end_steps in ends:
        if machine.states.halting(end) == "accept":
            accept += p
            t_acc = max(t_acc, end_steps)
        else:
            t_rej = max(t_rej, end_steps)
    return ExactRunResult(
        accept, max(t_acc, t_rej), t_acc, t_rej, len(origins),
        len(dist) if dist else 1, origins,
    )


def _pfa_exact_chain(machine: TwoWayPfa, tape: Tape, cutoff: int) -> ExactRunResult:
    """Absorbing-chain solve on the configuration graph.

    Acyclic graphs get an exact backward propagation, and their longest run
    must not exceed `cutoff` steps; small cyclic graphs get rational Gaussian
    elimination (no worst-case time exists, so `cutoff` does not apply);
    anything larger is refused. No step recurses, so chain depth is bounded
    by memory, not by the interpreter's stack.
    """
    start = (machine.states.initial, 0)
    symbols = tape.symbols
    configs: dict = {}
    order: list = []
    stack = [(start, 0)]          # (configuration, steps on the path that found it)
    edges: dict = {}
    halting: dict = {}
    while stack:
        cfg, steps = stack.pop()
        if cfg in configs:
            continue
        configs[cfg] = len(order)
        order.append(cfg)
        if len(order) > CONFIG_NODE_CAP:
            raise UnsupportedStructureError(
                f"{machine.name}: configuration graph exceeds {CONFIG_NODE_CAP} nodes"
            )
        state, pos = cfg
        halt = machine.states.halting(state)
        if halt is not None:
            halting[cfg] = halt
            continue
        sym = symbols[pos]
        dist = _pfa_distribution(machine, state, sym, machine.step(state, sym))
        outs = []
        for p, s2, mv in dist:
            if p == 0:
                continue
            nxt = (s2, tape.move(pos, mv, machine.name, steps))
            outs.append((p, nxt))
            stack.append((nxt, steps + 1))
        edges[cfg] = outs

    # One iterative post-order walk: a successor still on the walk's path
    # closes a cycle; otherwise every configuration is solved once all its
    # successors are. Halting configurations are solved up front.
    accept_p: dict = {}
    t_long: dict = {}
    t_acc: dict = {}               # -1: no accepting run from here
    t_rej: dict = {}
    for cfg, halt in halting.items():
        accept_p[cfg] = Fraction(1) if halt == "accept" else Fraction(0)
        t_long[cfg] = 0
        t_acc[cfg] = 0 if halt == "accept" else -1
        t_rej[cfg] = 0 if halt == "reject" else -1
    acyclic = True
    on_path = set()
    walk = []
    if start not in accept_p:
        on_path.add(start)
        walk.append((start, iter(edges[start])))
    while walk:
        cfg, successors = walk[-1]
        for _, nxt in successors:
            if nxt not in accept_p:
                break
        else:
            walk.pop()
            on_path.remove(cfg)
            total = Fraction(0)
            longest = 0
            la, lr = -1, -1
            for p, nxt in edges[cfg]:
                total += p * accept_p[nxt]
                longest = max(longest, 1 + t_long[nxt])
                if t_acc[nxt] >= 0:
                    la = max(la, 1 + t_acc[nxt])
                if t_rej[nxt] >= 0:
                    lr = max(lr, 1 + t_rej[nxt])
            accept_p[cfg] = total
            t_long[cfg] = longest
            t_acc[cfg] = la
            t_rej[cfg] = lr
            continue
        if nxt in on_path:
            acyclic = False
            break
        on_path.add(nxt)
        walk.append((nxt, iter(edges[nxt])))

    origins = {cfg[0] for cfg in order if cfg not in halting}
    if acyclic:
        if t_long[start] > cutoff:
            raise NonHaltingError(
                f"{machine.name}: longest run of {t_long[start]} steps exceeds "
                f"the step cutoff {cutoff}",
                configuration=start,
            )
        return ExactRunResult(
            accept_p[start],
            t_long[start],
            max(0, t_acc[start]),
            max(0, t_rej[start]),
            len(origins),
            len(order),
            origins,
        )

    if len(order) > 2000:
        raise UnsupportedStructureError(
            f"{machine.name}: cyclic configuration graph with {len(order)} nodes "
            "is beyond the exact rational solve"
        )
    # x_cfg = sum p * x_next, absorbing accept = 1 / reject = 0
    index = {cfg: k for k, cfg in enumerate(order)}
    size = len(order)
    aug = [[Fraction(0)] * (size + 1) for _ in range(size)]
    for cfg, k in index.items():
        aug[k][k] = Fraction(1)
        halt = halting.get(cfg)
        if halt is not None:
            if halt == "accept":
                aug[k][size] = Fraction(1)
            continue
        for p, nxt in edges[cfg]:
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
    prob = aug[index[start]][size]
    # cyclic graphs have no finite worst-case run length, so the probability is
    # exact but the time fields are meaningless; mark them unbounded
    return ExactRunResult(
        prob, 0, 0, 0, len(origins), len(order), origins, time_bounded=False
    )


def pfa_exact_prob(
    machine: TwoWayPfa, payload: str, cutoff: int = DEFAULT_CUTOFF
) -> Fraction:
    """Exact rational acceptance probability."""
    return pfa_exact(machine, payload, cutoff).accept_probability


def pfa_exact(
    machine: TwoWayPfa, payload: str, cutoff: int = DEFAULT_CUTOFF
) -> ExactRunResult:
    tape = Tape(payload, machine.circular)
    if machine.one_shot:
        return _pfa_exact_one_shot(machine, tape, cutoff)
    return _pfa_exact_chain(machine, tape, cutoff)


# --- quantum-classical runners --------------------------------------------------


class _QcfaRegister:
    """The quantum register of a 2QCFA run and the steps that drive it.

    transition() is the walker's: a unitary action is applied to `psi` (its
    norm checked and, if `log` is a list, logged unless it is the identity)
    and the classical step is machine.step's (None where undefined); a
    measurement is a choice and leaves `psi` alone. replay() applies a log
    again; route() is where a measurement outcome goes."""

    __slots__ = ("machine", "psi", "log")

    def __init__(self, machine: TwoWayQcfa, psi: np.ndarray):
        self.machine = machine
        self.psi = psi
        self.log = None

    def transition(self, state: State, sym: str):
        machine = self.machine
        action = machine.theta(state, sym)
        if action is None:
            raise SpecError(f"{machine.name}: no quantum action at {(state, sym)}")
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

    def replay(self, ops) -> None:
        psi = self.psi
        for action, where in ops:
            psi = action.apply(psi)
            check_norm(psi, where)
        self.psi = psi

    def route(self, state: State, sym: str, label) -> tuple[State, int]:
        nxt = self.machine.step_measure(state, sym, label)
        if nxt is None:
            raise SpecError(f"{self.machine.name}: no route for outcome "
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
        nxt = register.transition(state, sym)
        origins.add(state)
        if nxt is None:
            raise _undefined(machine, state, sym)
        nxt_state, mv = nxt
        if nxt_state is not _CHOICE:
            insert(weight, nxt_state, tape.move(pos, mv, machine.name, steps),
                   register.psi, steps + 1, passed)
            continue
        for label, p, collapsed in mv.branches(psi):
            nxt_state, mv = register.route(state, sym, label)
            insert(weight * p, nxt_state, tape.move(pos, mv, machine.name, steps),
                   collapsed, steps + 1, set())

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
    record_positions: bool = False,
) -> RunTrace:
    """One seeded trajectory: one draw per measurement."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    register = _QcfaRegister(machine, machine.initial_vector())

    def choose(state, sym, measurement):
        r = rng.random()
        acc = 0.0
        # collapse lazily up to the drawn outcome; past the float total: the last
        for label, p, collapsed in measurement.branches(register.psi):
            acc += p
            if r < acc:
                break
        register.psi = collapsed
        return register.route(state, sym, label)

    return _sample(machine, payload, register.transition, choose, cutoff,
                   record_positions, register)


# --- aggregate accounting --------------------------------------------------------


def cost_report(machine, payloads: Iterable[str], cutoff: int = DEFAULT_CUTOFF) -> CostReport:
    """Measure worst-case time over the given inputs (all branches of exact
    runs for stochastic machines) and the visited-state census."""
    t_acc = 0
    t_rej = 0
    visited: set = set()
    count = 0
    for payload in payloads:
        count += 1
        if machine.kind == "2dfa":
            trace = run_dfa(machine, payload, cutoff)
            if trace.outcome == "accept":
                t_acc = max(t_acc, trace.steps)
            else:
                t_rej = max(t_rej, trace.steps)
            visited |= trace.origins
        elif machine.kind in ("2pfa", "2qcfa"):
            exact = pfa_exact if machine.kind == "2pfa" else qcfa_exact
            res = exact(machine, payload, cutoff)
            if not res.time_bounded:
                raise UnsupportedStructureError(
                    f"{machine.name}: run time is unbounded on {payload!r}, "
                    "time-space accounting refused"
                )
            t_acc = max(t_acc, res.t_max_accepting)
            t_rej = max(t_rej, res.t_max_rejecting)
            visited |= res.origin_states
        else:
            raise InputError(f"unknown machine kind {machine.kind!r}")
    return CostReport.from_runs(machine, t_acc, t_rej, visited, count)


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
    one_shot: bool = False,
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
        one_shot,
        source={
            "kind": "2pfa",
            "explicit": True,
            "initial": initial,
            "accept": sorted(accept, key=repr),
            "reject": sorted(reject, key=repr),
            "table": table,
            "circular": circular,
            "one_shot": one_shot,
        },
    )
