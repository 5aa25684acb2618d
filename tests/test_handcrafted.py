"""Equality machines against brute-force membership and number theory."""

import itertools
from fractions import Fraction

import pytest

from twoway.automata import pfa_exact, run_dfa, run_pfa_sample
from twoway.boolfn import HASH, eq_language, membership
from twoway.errors import InputError
from twoway.handcrafted import (
    PrimeTable,
    build_eq_dfa,
    build_eq_pfa,
    eq_dfa_time,
    eq_pfa_exact_prob,
    eq_pfa_time,
    sieve_primes,
)


def payload(x, y):
    return x + HASH * len(x) + y


def all_pairs(n):
    for xv in range(1 << n):
        for yv in range(1 << n):
            yield format(xv, f"0{n}b"), format(yv, f"0{n}b")


def test_sieve_against_trial_division():
    def is_prime(q):
        return q >= 2 and all(q % d for d in range(2, int(q**0.5) + 1))
    assert sieve_primes(100) == [q for q in range(101) if is_prime(q)]
    assert sieve_primes(1) == []
    want = [q for q in range(5001) if is_prime(q)]
    # limits at, just below and just past the square of a prime
    for limit in (2, 3, 4, 5, 24, 25, 26, 48, 49, 50, 4999, 5000):
        assert sieve_primes(limit) == [q for q in want if q <= limit]
    assert len(sieve_primes(65536)) == 6542        # the primes up to 256^2


def test_prime_table_small_side_lengths():
    assert PrimeTable.for_side_length(1).primes == (2,)    # cap lifted to 2
    assert PrimeTable.for_side_length(4).primes == (2, 3, 5, 7, 11, 13)
    # one table per side length, shared by the machine and the evaluators
    assert PrimeTable.for_side_length(4) is PrimeTable.for_side_length(4)
    with pytest.raises(InputError):
        PrimeTable.for_side_length(0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eq_dfa_decides_equality_exhaustively(n):
    m = build_eq_dfa(n)
    lang = eq_language(n)
    for x, y in all_pairs(n):
        trace = run_dfa(m, payload(x, y))
        assert trace.accepted_bit == int(x == y)
        assert trace.steps <= eq_dfa_time(n)
        assert membership(lang, payload(x, y)) == (x == y)


def test_eq_dfa_time_formula_is_tight_on_members():
    for n in (1, 2, 5, 9):
        x = "1" * n
        trace = run_dfa(build_eq_dfa(n), payload(x, x))
        assert trace.steps == eq_dfa_time(n) == 3 * n + 2


def test_eq_dfa_rejects_malformed_payloads():
    m = build_eq_dfa(2)
    for w in ("01#01", "01###01", "0101", "##01", "01##0"):
        assert run_dfa(m, w).outcome == "reject"


def test_eq_dfa_census_within_declared_bound():
    n = 3
    m = build_eq_dfa(n)
    traces = [run_dfa(m, payload(x, y)) for x, y in all_pairs(n)]
    visited = frozenset().union(*(t.origins for t in traces))
    assert len(visited) <= m.states.declared_bound
    assert max(t.steps for t in traces) == 3 * n + 2


def frozen_residue_prob(n, x, y):
    """Independent oracle: fraction of primes <= max(n^2, 2) where x = y."""
    primes = [q for q in range(2, max(n * n, 2) + 1)
              if all(q % d for d in range(2, q))]
    xv, yv = int(x, 2), int(y, 2)
    hits = sum(xv % q == yv % q for q in primes)
    return Fraction(hits, len(primes))


def test_eq_pfa_exact_prob_matches_residue_oracle():
    for n in (1, 2, 4):
        for x, y in all_pairs(n):
            assert eq_pfa_exact_prob(n, x, y) == frozen_residue_prob(n, x, y)


def test_eq_pfa_frozen_collision_value():
    # 0000 vs 1100: 12 = 0 mod 2 and mod 3, differs mod 5, 7, 11, 13
    assert eq_pfa_exact_prob(4, "0000", "1100") == Fraction(1, 3)
    assert eq_pfa_exact_prob(4, "0000", "0000") == 1


@pytest.mark.parametrize("n", [1, 2, 3])
def test_eq_pfa_machine_matches_exact_prob(n):
    m = build_eq_pfa(n)
    for x, y in all_pairs(n):
        res = pfa_exact(m, payload(x, y))
        assert res.accept_probability == eq_pfa_exact_prob(n, x, y)
        assert res.t_max == eq_pfa_time(n) == 9 * n + 4
        assert res.time_bounded


def test_eq_pfa_members_accept_with_probability_one():
    for n in (1, 3, 5):
        m = build_eq_pfa(n)
        for xv in (0, (1 << n) - 1, 1):
            x = format(xv, f"0{n}b")
            assert pfa_exact(m, payload(x, x)).accept_probability == 1


def test_eq_pfa_one_sided_error_bound():
    # error <= log n^2 / pi(n^2) style bound; exhaustively check <= 1/3 at n=4
    n, worst = 4, Fraction(0)
    for x, y in all_pairs(n):
        if x != y:
            worst = max(worst, eq_pfa_exact_prob(n, x, y))
    assert worst == Fraction(1, 3)


def test_eq_pfa_rejects_malformed_payloads():
    m = build_eq_pfa(2)
    for w in ("01#01", "0101", "01##0", "###0"):
        assert pfa_exact(m, w).accept_probability == 0


def test_eq_pfa_branches_once_per_prime_and_samples_reproducibly():
    m = build_eq_pfa(3)
    assert pfa_exact(m, payload("101", "100")).branch_count == \
        PrimeTable.for_side_length(3).count
    outs = [run_pfa_sample(m, payload("101", "100"), seed=s).outcome
            for s in range(30)]
    assert outs == [run_pfa_sample(m, payload("101", "100"), seed=s).outcome
                    for s in range(30)]
    assert "reject" in outs


def test_eq_pfa_census_within_declared_bound():
    n = 2
    m = build_eq_pfa(n)
    runs = [pfa_exact(m, payload(x, y)) for x, y in all_pairs(n)]
    assert all(r.time_bounded for r in runs)
    visited = set().union(*(r.origin_states for r in runs))
    assert len(visited) <= m.states.declared_bound


def test_side_length_validation():
    with pytest.raises(InputError):
        build_eq_dfa(0)
    with pytest.raises(InputError):
        build_eq_pfa(0)
