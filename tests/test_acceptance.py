"""Top-level acceptance gate.

Each test exercises one published guarantee end to end at its stated
tolerance and prints a single PASS line with the measured figures; a
failing assert leaves the corresponding FAIL in the pytest report. The
suite is deterministic: every random draw is seeded.
"""

import math
import random
import time

import numpy as np
import pytest

from twoway.automata import pfa_exact, qcfa_sample, run_dfa, run_pfa_sample

pytestmark = pytest.mark.acceptance
from twoway.boolfn import and_gadget, eq_language
from twoway.commlab import bruteforce_dcc, eq_matrix, extract_protocol, machine_space
from twoway.compiler import (
    compile_query_to_qcfa,
    run_compiled,
    run_compiled_lanes,
    verify_segment_equivalence,
)
from twoway.handcrafted import build_eq_dfa, build_eq_pfa
from twoway.harness import _EqPfaFast, fit_scaling, sweep_ts
from twoway.qquery import exact_parity, grover_or, run_query_alg_lanes

from per_pair import pfa_prob


def payload(x: str, y: str) -> str:
    return x + "#" * len(x) + y


def rand_word(rng: random.Random, n: int) -> str:
    return format(rng.randrange(1 << n), f"0{n}b")


def and_word(x: str, y: str) -> list:
    return [int(a) & int(b) for a, b in zip(x, y)]


def test_criterion_01_equality_pfa_error_bound():
    n, started = 10, time.perf_counter()
    fast = _EqPfaFast(n)
    machine = build_eq_pfa(n)
    rng = random.Random(101)
    pairs = [(rand_word(rng, n), rand_word(rng, n)) for _ in range(500)]
    # adversarial: differences divisible by many of the primes up to n^2
    for d in (210, 420, 630, 840, 770, 858, 210, 630, 770, 858):
        for _ in range(5):
            v = rng.randrange((1 << n) - d)
            pairs.append((format(v, f"0{n}b"), format(v + d, f"0{n}b")))
    assert len(pairs) == 550
    worst = 0.0
    for x, y in pairs:
        p = pfa_prob(fast, x, y)
        if x == y:
            assert p == 1.0
        else:
            assert p <= 0.36
            worst = max(worst, p)
    for x, y in pairs[::40] + [("1" * n, "1" * n)]:
        exact = pfa_exact(machine, payload(x, y))
        assert pfa_prob(fast, x, y) == float(exact.accept_probability)
    elapsed = time.perf_counter() - started
    assert elapsed < 10
    print(f"criterion 01: PASS  worst nonmember error {worst:.4f} <= 0.36, "
          f"members exact, {elapsed:.1f}s < 10s")


def test_criterion_02_equality_protocol_cost():
    started = time.perf_counter()
    one = bruteforce_dcc(eq_matrix(1))
    two = bruteforce_dcc(eq_matrix(2))
    assert one == 2
    assert two == 3
    elapsed = time.perf_counter() - started
    assert elapsed < 5
    print(f"criterion 02: PASS  cost(EQ_1)={one}, cost(EQ_2)={two}, "
          f"{elapsed:.1f}s < 5s")


def _compare_compiled(alg_builder, n: int, pairs) -> float:
    # each side evaluates the whole row of pairs in one call
    rep = compile_query_to_qcfa(alg_builder(n), and_gadget(), n)
    alg = alg_builder(n)
    x, y = (np.array([[int(b) for b in w] for w in side], dtype=np.uint8)
            for side in zip(*pairs))
    got = run_compiled_lanes(rep, x, y).accept_probability.tolist()
    want = run_query_alg_lanes(alg, x & y)
    return max(abs(g - w) for g, w in zip(got, want))


def test_criterion_03_compiled_probabilities_match_query_algorithms():
    started = time.perf_counter()
    worst = 0.0
    # exhaustive over every pair while 2^(2n) stays small (OR search needs
    # two blocks, the parity pairing an even count)
    for n in range(2, 7):
        pairs = [(format(a, f"0{n}b"), format(b, f"0{n}b"))
                 for a in range(1 << n) for b in range(1 << n)]
        worst = max(worst, _compare_compiled(grover_or, n, pairs))
        if n % 2 == 0:
            worst = max(worst, _compare_compiled(exact_parity, n, pairs))
    rng = random.Random(303)
    for n in (16, 32, 64):
        pairs = [(rand_word(rng, n), rand_word(rng, n)) for _ in range(200)]
        worst = max(worst, _compare_compiled(grover_or, n, pairs))
        worst = max(worst, _compare_compiled(exact_parity, n, pairs))
    assert worst <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    print(f"criterion 03: PASS  max |machine - algorithm| = {worst:.2e} "
          f"<= 1e-6, {elapsed:.1f}s < 2min")


def test_criterion_04_compiled_parity_is_exact():
    started = time.perf_counter()
    rng = random.Random(404)
    worst = 0.0
    for n in (2, 4, 8, 16):
        rep = compile_query_to_qcfa(exact_parity(n), and_gadget(), n)
        pairs = [(rand_word(rng, n), rand_word(rng, n)) for _ in range(20)]
        pairs += [("1" * n, "1" * n), ("1" * n, "0" * n)]
        for x, y in pairs:
            want = sum(and_word(x, y)) % 2
            got = run_compiled(rep, x, y).accept_probability
            worst = max(worst, abs(got - want))
    assert worst <= 1e-9
    print(f"criterion 04: PASS  max deviation from the parity bit "
          f"{worst:.2e} <= 1e-9, {time.perf_counter() - started:.1f}s")


def test_criterion_05_segment_states_match_mid_run():
    started = time.perf_counter()
    n = 8
    alg = grover_or(n)
    rep = compile_query_to_qcfa(alg, and_gadget(), n)
    rng = random.Random(505)
    worst = 0.0
    for _ in range(100):
        x, y = rand_word(rng, n), rand_word(rng, n)
        j = rng.randrange(alg.total_calls + 1)
        worst = max(worst, verify_segment_equivalence(alg, rep, x, y, j))
    assert worst <= 1e-9
    print(f"criterion 05: PASS  max register deviation after j calls "
          f"{worst:.2e} <= 1e-9 (100 draws), {time.perf_counter() - started:.1f}s")


def test_criterion_06_time_and_census_bounds():
    started = time.perf_counter()
    rng = random.Random(606)
    checked = 0
    for alg_builder in (grover_or, exact_parity):
        for n in (2, 3, 4, 16, 32, 64):
            if n % 2 and alg_builder is exact_parity:
                continue
            rep = compile_query_to_qcfa(alg_builder(n), and_gadget(), n)
            t = alg_builder(n).total_calls
            bound = 8 * t * (n + 2) + 4 * (n + 2)
            if n <= 4:
                pairs = [(format(a, f"0{n}b"), format(b, f"0{n}b"))
                         for a in range(1 << n) for b in range(1 << n)]
            else:
                pairs = [(rand_word(rng, n), rand_word(rng, n))
                         for _ in range(50)]
            for x, y in pairs:
                res = run_compiled(rep, x, y)
                assert res.t_max <= bound
                assert res.visited <= rep.declared_states
                checked += 1
    print(f"criterion 06: PASS  T <= 8t(n+2)+4(n+2) and census <= declared "
          f"on {checked} runs, {time.perf_counter() - started:.1f}s")


def test_criterion_07_protocol_certificates():
    started = time.perf_counter()
    plans = [("eq-dfa", [4, 16, 64]), ("eq-pfa", [8, 32, 128]),
             ("grover-ints", [16, 64]), ("exact-parity-lifted", [16, 64])]
    rows = 0
    for family, ns in plans:
        # every per-input run inside a sweep is certificate-checked
        rows += len(sweep_ts(family, ns, samples_per_n=8, seed=7))
    transcripts = 0
    for machine, runner in (
        (build_eq_dfa(8), lambda m, pay, s: run_dfa(m, pay)),
        (build_eq_pfa(8), run_pfa_sample),
        (compile_query_to_qcfa(grover_or(4), and_gadget(), 4).machine,
         qcfa_sample),
    ):
        rng = random.Random(707)
        space = machine_space(machine)
        n = 8 if machine.kind != "2qcfa" else 4
        for seed in range(10):
            x, y = rand_word(rng, n), rand_word(rng, n)
            tr = extract_protocol(machine, x, y, seed=seed)
            t_run = runner(machine, payload(x, y), seed).steps
            assert tr.crossings * n <= t_run
            assert tr.total_bits <= space * (t_run // n) + 1
            transcripts += 1
    elapsed = time.perf_counter() - started
    print(f"criterion 07: PASS  certificate held on {rows} sweep rows and "
          f"{transcripts} direct transcripts, {elapsed:.1f}s")


def test_criterion_08_equality_ts_scaling():
    started = time.perf_counter()
    ns = [8, 16, 32, 64, 128, 256]
    dfa_fit = fit_scaling(sweep_ts("eq-dfa", ns, seed=0))
    assert 1.85 <= dfa_fit.slope <= 2.15
    pfa_fit = fit_scaling(sweep_ts("eq-pfa", ns, seed=0), "divide-by-log-n")
    assert 0.85 <= pfa_fit.slope <= 1.15
    elapsed = time.perf_counter() - started
    assert elapsed < 120
    print(f"criterion 08: PASS  eq-dfa slope {dfa_fit.slope:.3f} in "
          f"[1.85, 2.15], eq-pfa corrected slope {pfa_fit.slope:.3f} in "
          f"[0.85, 1.15], {elapsed:.1f}s < 2min")


def test_criterion_09_intersection_ts_scaling():
    started = time.perf_counter()
    rows = sweep_ts("grover-ints", [16, 64, 256, 1024], seed=0)
    fit = fit_scaling(rows, "divide-by-log-n")
    assert 1.3 <= fit.slope <= 1.7
    elapsed = time.perf_counter() - started
    assert elapsed < 600
    print(f"criterion 09: PASS  corrected slope {fit.slope:.3f} in "
          f"[1.3, 1.7], {elapsed:.1f}s < 10min")


def test_criterion_09_fit_extends_to_n4096():
    # n=4096 compiles a register of dim 16384, whose every operator is
    # certified unitary like the smaller ones
    started = time.perf_counter()
    rows = sweep_ts("grover-ints", [64, 256, 1024, 4096], seed=0)
    fit = fit_scaling(rows, "divide-by-log-n")
    assert 1.3 <= fit.slope <= 1.7
    elapsed = time.perf_counter() - started
    print(f"criterion 09 to n=4096: PASS  corrected slope {fit.slope:.3f} in "
          f"[1.3, 1.7], {elapsed:.1f}s")


def test_criterion_10_sampling_agrees_with_exact():
    started = time.perf_counter()
    reps = 10_000
    cases = []
    for n, x, y in [(4, "1011", "1011"), (4, "1011", "0011"),
                    (4, "0000", "1100"), (3, "101", "100"),
                    (5, "00110", "00000"), (6, "110100", "110000")]:
        machine = build_eq_pfa(n)
        p = float(pfa_exact(machine, payload(x, y)).accept_probability)
        cases.append((f"eq-pfa:{n} {x}|{y}", machine, run_pfa_sample, x, y, p))
    for alg_builder, n, x, y in [(grover_or, 2, "11", "11"),
                                 (grover_or, 2, "01", "10"),
                                 (exact_parity, 2, "10", "11"),
                                 (exact_parity, 2, "11", "11")]:
        rep = compile_query_to_qcfa(alg_builder(n), and_gadget(), n)
        p = min(1.0, max(0.0, run_compiled(rep, x, y).accept_probability))
        cases.append((f"{rep.machine.name} {x}|{y}", rep.machine,
                      qcfa_sample, x, y, p))
    assert len(cases) == 10
    worst_sigmas = 0.0
    for label, machine, sampler, x, y, p in cases:
        pay = payload(x, y)
        hits = sum(sampler(machine, pay, seed=s).outcome == "accept"
                   for s in range(reps))
        phat = hits / reps
        sigma = math.sqrt(p * (1.0 - p) / reps)
        assert abs(phat - p) <= 4 * sigma, (label, phat, p)
        if sigma:
            worst_sigmas = max(worst_sigmas, abs(phat - p) / sigma)
    print(f"criterion 10: PASS  10 machine/input pairs, {reps} samples each, "
          f"worst gap {worst_sigmas:.2f} sigma <= 4, "
          f"{time.perf_counter() - started:.1f}s")
