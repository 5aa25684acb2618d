"""Pinned `qcfa_exact` results on seeded random 2QCFAs: one sha256 over
every field a run reports (the probability as float.hex), or the type and
message of the error it raises, so a change to how the exact runner walks,
merges or orders its branches cannot move a bit unseen.

The operators apply without BLAS (basis and index transpositions, Hadamard
pairs, and 2x2 answer-bit unitaries built from Pythagorean triples and
quarter-turn phases, so no libm call either): the digest does not depend on
the numpy build."""

import hashlib
import random

import numpy as np

from twoway.automata import StateSpace, TwoWayQcfa, qcfa_exact
from twoway.errors import TwoWayError
from twoway.ops import (
    BasisSwapOp,
    CompleteMeasurement,
    IdentityOp,
    IndexPairHOp,
    IndexPermOp,
    Measurement,
    OnAnswerOp,
    RegisterLayout,
)

RANDOM_MACHINES = 3000
CUTOFF = 24
LAYOUTS = (RegisterLayout(1), RegisterLayout(2), RegisterLayout(1, 2))   # dims 2, 4, 4
TRIPLES = ((3, 4, 5), (5, 12, 13), (8, 15, 17), (1, 1, None))           # None: sqrt 2
PHASES = (1, -1, 1j, -1j)


def answer_unitary(rng: random.Random) -> np.ndarray:
    """[[c, -s u], [s v, c u v]] for a cosine c and sine s of a Pythagorean
    angle (or pi/4) and quarter-turn phases u, v: unitary for any choice."""
    a, b, h = rng.choice(TRIPLES)
    h = np.sqrt(2.0) if h is None else h
    c, s = (a / h, b / h) if rng.random() < 0.5 else (b / h, a / h)
    u, v = rng.choice(PHASES), rng.choice(PHASES)
    return np.array([[c, -s * u], [s * v, c * u * v]], dtype=np.complex128)


def random_partition(rng: random.Random, dim: int) -> Measurement:
    """A measurement of 2 to dim outcomes, each a random group of basis indices."""
    groups = rng.randint(2, dim)
    cells = [rng.randrange(groups) for _ in range(dim)]
    outcomes = {f"g{k}": [i for i in range(dim) if cells[i] == k] for k in range(groups)}
    return Measurement(dim, outcomes, "part")


def random_qcfa(seed: int):
    """A seeded random 2QCFA over 2-6 working states and a payload of up to
    six symbols.

    About a third each of the actions are measurements, unitaries and the
    identity, so runs split, and walk deterministic stretches between
    quantum actions. A step goes to a state no earlier than its own (a
    later one unless it moves right; one time in ten any state), so
    stretches mostly end. Three in ten measurements route back to the
    first state; four in five route every outcome to one place, where the
    branches meet on different registers without a reset; and half the
    routes that move right keep the state they route from (or the first),
    so a sweep measures cell after cell and its branches meet again on
    equal registers. About 3% of actions, steps and routes are undefined,
    and 2% of moves are -1 or 1 whatever the symbol, so some leave an
    end-marked tape."""
    rng = random.Random(seed)
    layout = rng.choice(LAYOUTS)
    dim = layout.dim
    a, b = rng.sample(range(dim), 2)
    unitaries = [BasisSwapOp(dim, a, b)] + [
        OnAnswerOp(layout, answer_unitary(rng), "rot") for _ in range(3)]
    if layout.index_dim > 1:
        unitaries += [IndexPairHOp(layout, 0, 1)] * 2 + [IndexPermOp(layout, [(0, 1)])]
    measurements = [CompleteMeasurement(dim), random_partition(rng, dim)]
    states = ["a", "b", "c", "d", "e", "f"][:rng.randint(2, 6)]
    circular = rng.random() < 0.3

    def move(sym):
        if rng.random() < 0.02:
            return rng.choice((-1, 1))
        if sym == "¢":
            return rng.choice((0, 1, 1, 1))
        if sym == "$" and not circular:
            return rng.choice((-1, 0))
        return rng.choice((-1, 0, 1, 1, 1))

    def destination(s, sym, halts, loop=0.0):
        mv = move(sym)
        if mv == 1 and rng.random() < loop:
            return s, mv
        later = states if rng.random() < 0.1 else states[states.index(s) + (mv != 1):]
        if not later or rng.random() < halts:
            return rng.choice(("yes", "no")), mv
        return rng.choice(later), mv

    theta, step, route = {}, {}, {}
    for s in states:
        for sym in "¢01#$":
            if rng.random() < 0.03:
                continue
            r = rng.random()
            if r < 0.3:
                action = IdentityOp(dim)
            elif r < 0.65:
                action = rng.choice(unitaries)
            else:
                action = rng.choice(measurements)
            theta[s, sym] = action
            if not isinstance(action, Measurement):
                if rng.random() >= 0.03:
                    step[s, sym] = destination(s, sym, 0.1)
                continue
            back = states[0] if rng.random() < 0.3 else s
            shared = destination(back, sym, 0.05, 0.5) if rng.random() < 0.8 else None
            for label in action.labels():
                if rng.random() >= 0.03:
                    route[s, sym, label] = shared or destination(back, sym, 0.05, 0.5)
    space = StateSpace("a", {"yes": "accept", "no": "reject"}.get, len(states) + 2,
                       str(len(states) + 2))
    machine = TwoWayQcfa(
        f"rq{seed}", space, dim,
        lambda state, sym: theta.get((state, sym)),
        lambda state, sym: step.get((state, sym)),
        lambda state, sym, label: route.get((state, sym, label)),
        circular,
    )
    word = "".join(rng.choice("01#") for _ in range(rng.randint(0, 6)))
    return machine, word


def fields(res) -> str:
    return repr([float(res.accept_probability).hex(), res.t_max, res.t_max_accepting,
                 res.t_max_rejecting, res.visited, res.branch_count,
                 sorted(map(repr, res.origin_states)), res.time_bounded,
                 res.crossings_max])


def test_random_qcfas_are_pinned():
    lines = []
    halted = 0
    for seed in range(RANDOM_MACHINES):
        m, word = random_qcfa(seed)
        try:
            line = fields(qcfa_exact(m, word, cutoff=CUTOFF))
            halted += 1
        except TwoWayError as exc:
            line = f"{type(exc).__name__}: {exc}"
        lines.append(f"{seed} {line}")
    assert halted == 1790                 # the other 1,210 raise
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "71015461757009b07dfc4ffcaa05b07a27b92bec12352e83a3637d14b2eae361"
