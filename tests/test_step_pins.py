"""Pinned step-level results of compiled machines: one sha256 per machine
over, at fixed seeded pairs, every qcfa_exact field (the probability as
float.hex), three seeded qcfa_sample traces (outcome, steps, visited) and
verify_segment_equivalence's deviation after every number of oracle calls.
These runners step the lifted register through the machine's own theta,
step and step_measure, so a change to how the compiled machine lifts its
operators, measurements and resets cannot move a bit unseen. The ip:2
machines lift by four cache blocks, so a partition group sums four runs."""

import hashlib
import random

import pytest

from twoway.automata import qcfa_exact, qcfa_sample
from twoway.boolfn import HASH, and_gadget, ip_gadget
from twoway.compiler import compile_query_to_qcfa, verify_segment_equivalence
from twoway.qquery import exact_parity, grover_or

CASES = {
    ("grover-or", 4, "and1"): (grover_or, 4, and_gadget),
    ("exact-parity", 4, "and1"): (exact_parity, 4, and_gadget),
    ("grover-or", 8, "and1"): (grover_or, 8, and_gadget),
    ("grover-or", 2, "ip:2"): (grover_or, 2, ip_gadget),
    ("exact-parity", 2, "ip:2"): (exact_parity, 2, ip_gadget),
    ("grover-or", 4, "ip:2"): (grover_or, 4, ip_gadget),
}

PINS = {
    ("grover-or", 4, "and1"): "7a5a009bce9e27b5e1cfba532a3efdff852756e148aec312979c34749b35c7bb",
    ("exact-parity", 4, "and1"): "fe81466a8b04b3239da6996b9442b32529683ab4b5cee25291912164157833f5",
    ("grover-or", 8, "and1"): "161ec4ebe5c8b55c51b9179ca65bc1809e620b2fb5164adc710f1b2fa92ce3f6",
    ("grover-or", 2, "ip:2"): "e2f14d6e991db3360e8eea698e3caafa61ce92fbea3df4f281ad1e0a75f6191e",
    ("exact-parity", 2, "ip:2"): "fe2637fe72df21f83ca48f5be88baa739389cfcd5e68c948501980ac63fcedeb",
    ("grover-or", 4, "ip:2"): "076a31437afe29679cd3ec64d9e079690596beb8f01a3872edff2935fd213715",
}


def pairs(n: int, seed: int) -> list:
    """Three seeded pairs and one sharing no 1 with x (a non-member of
    both the OR and the parity language over and1)."""
    rng = random.Random(seed)
    drawn = [tuple(format(rng.getrandbits(n), f"0{n}b") for _ in "xy") for _ in range(3)]
    return drawn + [("1" * n, "0" * n)]


def step_digest(builder, p: int, gadget) -> str:
    g = gadget(2) if gadget is ip_gadget else gadget()
    alg, n = builder(p), p * g.width
    rep = compile_query_to_qcfa(alg, g, n)
    h = hashlib.sha256()
    for x, y in pairs(n, n):
        word = x + HASH * n + y
        r = qcfa_exact(rep.machine, word)
        h.update(repr((float(r.accept_probability).hex(), r.t_max, r.t_max_accepting,
                       r.t_max_rejecting, r.visited, r.branch_count,
                       sorted(map(repr, r.origin_states)), r.time_bounded,
                       r.crossings_max)).encode())
        for seed in range(3):
            t = qcfa_sample(rep.machine, word, seed=seed)
            h.update(repr((t.outcome, t.steps, t.visited)).encode())
        h.update(repr([verify_segment_equivalence(alg, rep, x, y, j).hex()
                       for j in range(alg.total_calls + 1)]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0]}:{c[1]}%{c[2]}")
def test_step_level_runs_are_pinned(case):
    assert step_digest(*CASES[case]) == PINS[case]
