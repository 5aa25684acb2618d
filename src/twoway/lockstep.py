"""Lockstep runner for two-way deterministic automata: one machine on many
payloads of one length at once, in numpy.

States are interned to integers on first sight, and (state, symbol) ->
(next state, move) is tabulated the first time a lane needs it, so the
machine's step function runs once per distinct pair however many lanes take
it (Shepherdson's transfer tables summarise a two-way machine the same way).
Every step then moves all live lanes with array lookups. The runner also
counts each lane's hand-offs between two ownership regions of the tape, as
run_dfa records them on a split run, and its visited census.

automata.run_dfa stays the single-run API and the reference: a lane this
runner cannot finish exactly as run_dfa would is handed back to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .automata import (
    DEFAULT_CUTOFF,
    LEFT_MARKER,
    PAYLOAD_SYMBOLS,
    RIGHT_MARKER,
    State,
    TwoWayDfa,
)
from .errors import InputError

# A block holds LANE_CELLS // (tape length) lanes, which bounds its memory at
# any row size: the tape takes 1 byte a cell, and the census rows and their
# sorted copy 8 bytes a cell (a lane walks at most one tape length of steps).
LANE_CELLS = 1 << 17
_TAPE_CODES = (*PAYLOAD_SYMBOLS, LEFT_MARKER, RIGHT_MARKER)   # symbol code -> symbol
_LEFT_CODE, _RIGHT_CODE = len(PAYLOAD_SYMBOLS), len(PAYLOAD_SYMBOLS) + 1
_UNSEEN = -1                # table entry not filled yet
_REPLAY = 0                 # pseudo-state: the lockstep walk cannot take this transition
_INITIAL = 1                # id of the machine's initial state
_HALT_REPLAY = 2            # halting code of _REPLAY (-1 running, 0/1 accepted bit)


@dataclass
class LaneRuns:
    """Per-lane results of run_dfa_lanes. A lane with `replay` set was not
    finished in lockstep; its other fields are meaningless."""

    accepted: np.ndarray    # 1/0 accepted bit
    steps: np.ndarray
    visited: np.ndarray     # distinct transition-origin states
    crossings: np.ndarray   # ownership hand-offs, as run_dfa records them
    replay: np.ndarray

    @classmethod
    def zeros(cls, lanes: int) -> "LaneRuns":
        return cls(np.zeros(lanes, np.int8), np.zeros(lanes, np.int64),
                   np.zeros(lanes, np.int64), np.zeros(lanes, np.int64),
                   np.zeros(lanes, bool))


class _TransitionTable:
    """(state id, symbol code) -> (next state id, move) over states interned
    on first sight. An entry is filled from machine.step the first time a
    lane needs it, and a state's halting code when the state is interned.

    A transition that is undefined, raises, makes an illegal move or leads
    to a state that cannot be interned goes to the pseudo-state _REPLAY:
    the lanes that take it go back to run_dfa, which raises the error at
    the step it occurs."""

    def __init__(self, machine: TwoWayDfa):
        self.machine = machine
        self.ids: dict = {}
        self.states: list = [None]
        self.next = np.full(len(_TAPE_CODES), _UNSEEN, dtype=np.int32)
        self.move = np.zeros(len(_TAPE_CODES), dtype=np.int8)
        self.halt = np.array([_HALT_REPLAY], dtype=np.int8)
        halts: list = []
        self.intern(machine.states.initial, halts)
        self.store(halts)

    def intern(self, state: State, halts: list) -> int:
        """The id of `state`; a new state's halting code goes on `halts`."""
        sid = self.ids.get(state)
        if sid is None:
            halt = self.machine.states.halting(state)
            sid = len(self.states)
            self.ids[state] = sid
            self.states.append(state)
            halts.append(-1 if halt is None else int(halt == "accept"))
        return sid

    def store(self, halts: list) -> None:
        """Grow the arrays to every interned state; store the new codes."""
        size = self.halt.size
        while size < len(self.states):
            size *= 2
        if size > self.halt.size:
            grow = size - self.halt.size
            self.next = np.concatenate([self.next, np.full(grow * len(_TAPE_CODES), _UNSEEN, np.int32)])
            self.move = np.concatenate([self.move, np.zeros(grow * len(_TAPE_CODES), np.int8)])
            self.halt = np.concatenate([self.halt, np.zeros(grow, np.int8)])
        self.halt[len(self.states) - len(halts):len(self.states)] = halts

    def fill(self, keys: np.ndarray) -> None:
        keys = np.sort(keys)            # np.unique would import numpy.ma
        first = np.ones(keys.size, dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        targets, moves, halts = [], [], []
        for key in keys.tolist():
            sid, code = divmod(key, len(_TAPE_CODES))
            try:
                state, mv = self.machine.step(self.states[sid], _TAPE_CODES[code])
                nxt = self.intern(state, halts) if mv in (-1, 0, 1) else _REPLAY
            except Exception:       # run_dfa meets it again and raises it in place
                nxt = _REPLAY
            targets.append(nxt)
            moves.append(mv if nxt != _REPLAY else 0)
        self.store(halts)
        self.next[keys] = targets
        self.move[keys] = moves


def run_dfa_lanes(
    machine: TwoWayDfa,
    payloads: np.ndarray,
    regions,
    cutoff: int = DEFAULT_CUTOFF,
) -> LaneRuns:
    """Run one machine on many payloads of one length in lockstep.

    `payloads` holds one payload per row as indices into PAYLOAD_SYMBOLS.
    Each lane's run equals run_dfa's on its payload, and its crossings
    count the hand-offs between the two ownership `regions` ((lo, hi) head
    intervals) that run_dfa records with the same `regions`.

    Transitions come from a table filled on first use, so machine.step and
    states.halting run once per distinct (state, symbol) pair and state.
    Lanes run in blocks of at most LANE_CELLS tape cells. A lane is marked
    `replay` instead of finished when it needs a transition the table
    cannot take, moves off the tape, leaves both regions after a hand-off,
    or is still running after min(cutoff, tape length) steps; run_dfa then
    finishes it or raises its error. The equality sweep machine, the one
    machine the sweeps walk here, halts in exactly one tape length."""
    payloads = np.asarray(payloads)
    if payloads.ndim != 2 or not np.issubdtype(payloads.dtype, np.integer):
        raise InputError("payloads must be a (lanes, length) integer matrix")
    if payloads.size and not 0 <= payloads.min() <= payloads.max() < len(PAYLOAD_SYMBOLS):
        raise InputError(f"payload codes must index {PAYLOAD_SYMBOLS}")
    lanes, width = payloads.shape[0], payloads.shape[1] + 2
    runs = LaneRuns.zeros(lanes)
    if not lanes:
        return runs
    # region[owner * (width + 2) + pos + 1]: pos (-1..width) lies in the
    # owner's region; positions off the tape lie in neither
    region = np.zeros(2 * (width + 2), dtype=bool)
    for owner, (lo, hi) in enumerate(regions):
        row = owner * (width + 2) + 1
        region[row + max(lo, 0):row + min(hi, width - 1) + 1] = True
    table = _TransitionTable(machine)
    # every lane starts on the left end marker, where run_dfa checks it too
    owner = 0
    if not region[1]:
        owner = 1
        runs.crossings[:] = 1
        if not region[width + 3]:
            runs.replay[:] = True
            return runs
    if table.halt[_INITIAL] >= 0:
        runs.accepted[:] = table.halt[_INITIAL]
        return runs
    block = max(1, LANE_CELLS // width)
    budget = min(cutoff, width)
    for lo in range(0, lanes, block):
        hi = min(lo + block, lanes)
        views = LaneRuns(*(field[lo:hi] for field in vars(runs).values()))
        _walk_block(table, payloads[lo:hi], region, owner, budget, machine.circular, views)
    return runs


def _walk_block(table, payloads, region, owner, budget, circular, out) -> None:
    """Walk one block of lanes; `out` holds views into the run's results.
    The live lanes' ids, tape row starts, states, head positions and owner
    rows in `region` are kept compacted, and shrink when lanes stop."""
    lanes, width = payloads.shape[0], payloads.shape[1] + 2
    codes = len(_TAPE_CODES)
    tape = np.empty((lanes, width), dtype=np.uint8)
    tape[:, 0] = _LEFT_CODE
    tape[:, 1:-1] = payloads
    tape[:, -1] = _RIGHT_CODE
    tape = tape.ravel()
    live = np.arange(lanes)
    base = live * width
    s = np.full(lanes, _INITIAL, dtype=np.int64)
    p = np.zeros(lanes, dtype=np.int64)
    o = np.full(lanes, owner * (width + 2) + 1, dtype=np.int64)
    flip = width + 4                        # o -> flip - o swaps the owner row
    # origin state of every step, one row per step; a stopped lane keeps
    # the initial state, which its first step left from
    origins = np.full((budget, lanes), _INITIAL, dtype=np.int32)
    taken = 0
    while live.size and taken < budget:
        key = s * codes + tape[base + p]
        nxt = table.next[key]
        unseen = nxt == _UNSEEN
        if unseen.any():
            table.fill(key[unseen])
            nxt = table.next[key]
        p = p + table.move[key]
        if circular:
            p[p == width] = 0
        origins[taken, live] = s
        taken += 1
        code = table.halt[nxt]
        inside = region[o + p]
        if not inside.all():                # a hand-off, or a move off the tape
            cross = ~inside
            o[cross] = flip - o[cross]
            out.crossings[live[cross]] += 1
            code[~region[o + p]] = _HALT_REPLAY
        running = code < 0
        if running.all():
            s = nxt
            continue
        stopped, code = live[~running], code[~running]
        out.accepted[stopped] = code == 1
        out.steps[stopped] = taken
        out.replay[stopped] = code == _HALT_REPLAY
        live, base, s, p, o = live[running], base[running], nxt[running], p[running], o[running]
    out.replay[live] = True
    out.visited[:] = distinct_per_row(origins[:taken].T)


def distinct_per_row(codes: np.ndarray) -> np.ndarray:
    """The number of distinct values in each row. A non-contiguous matrix
    (such as a transposed one) is sorted in a contiguous copy, a contiguous
    one in place, with numpy's default sort: on one block of the exhaustive
    eq-dfa n=8 row (5041 lanes of 26 int32 origins) it took 0.30 ms where
    the radix sort (kind="stable") took 1.2 ms (AVX-512 x86 host, numpy
    2.4)."""
    rows = np.ascontiguousarray(codes)
    rows.sort(axis=1)
    return np.add.reduce(rows[:, 1:] != rows[:, :-1], axis=1, dtype=np.int64) + 1
