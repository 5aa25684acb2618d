"""Pinned `pfa_exact` results: sha256 digests of every field a run reports,
on the fingerprint machine and on seeded random table 2PFAs, so a change
to how the exact runner explores or solves cannot move a result unseen."""

import hashlib
import random
from fractions import Fraction

from twoway.automata import pfa_exact, pfa_from_table
from twoway.errors import TwoWayError
from twoway.handcrafted import build_eq_pfa

RANDOM_MACHINES = 3000


def payload(x, y):
    return x + "#" * len(x) + y


def fields(res, branches=False) -> str:
    out = [str(res.accept_probability), res.t_max, res.t_max_accepting,
           res.t_max_rejecting, res.visited, res.time_bounded,
           sorted(map(repr, res.origin_states))]
    if branches:
        out.append(res.branch_count)
    return repr(out)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def random_table_pfa(seed: int):
    """A seeded random table 2PFA over 2-4 working states and a short
    payload: some transitions undefined, distributions of 1-3 outcomes with
    small denominators (zero-probability outcomes included), moves that
    never leave the tape, so runs fault only by looping or on a hole."""
    rng = random.Random(seed)
    states = ["a", "b", "c", "d"][:rng.randint(2, 4)]
    targets = states + ["yes", "no"]
    table = {}
    for s in states:
        for sym, moves in (("¢", (0, 1)), ("0", (-1, 0, 1)), ("1", (-1, 0, 1)),
                           ("#", (-1, 0, 1)), ("$", (-1, 0))):
            if rng.random() < 0.1:
                continue
            weights = [rng.randint(0, 3) for _ in range(rng.choice((1, 1, 2, 3)))]
            weights[0] += not any(weights)
            total = sum(weights)
            table[(s, sym)] = [(Fraction(w, total), rng.choice(targets), rng.choice(moves))
                               for w in weights]
    word = "".join(rng.choice("01#") for _ in range(rng.randint(0, 4)))
    return pfa_from_table(f"rand{seed}", table, "a", {"yes"}, {"no"}), word


def test_eq_pfa_small_sides_are_pinned():
    lines = []
    for n in (1, 2, 3, 4):
        m = build_eq_pfa(n)
        for xv in range(1 << n):
            for yv in range(1 << n):
                x, y = format(xv, f"0{n}b"), format(yv, f"0{n}b")
                lines.append(f"{n} {x} {y} {fields(pfa_exact(m, payload(x, y)), True)}")
    assert len(lines) == 4 + 16 + 64 + 256
    assert digest(lines) == "0c8d1993d718768f140d454d0d126846f593cfea93dc05e057370eb39dd9a358"


def test_eq_pfa_16_is_pinned():
    rng = random.Random(16)
    m = build_eq_pfa(16)
    lines = []
    for k in range(24):
        x = format(rng.getrandbits(16), "016b")
        y = x if k % 4 == 0 else format(rng.getrandbits(16), "016b")
        lines.append(f"{x} {y} {fields(pfa_exact(m, payload(x, y)), True)}")
    assert digest(lines) == "366a7dc9b36ce576ab44364f0765d83a7dfb425a60a40735069ea93daf612690"


def test_random_table_pfas_are_pinned():
    lines = []
    for seed in range(RANDOM_MACHINES):
        m, word = random_table_pfa(seed)
        try:
            res = pfa_exact(m, word)
        except TwoWayError:
            continue
        lines.append(f"{seed} {fields(res)}")
    assert len(lines) == 1935          # 448 of them on cyclic graphs
    assert digest(lines) == "e125f518426cb057fd9728f1b75ca5b3381d396ad139f5df15d9bcfe6d6e404f"
