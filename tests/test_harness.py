"""Sweep machinery: fast equality evaluator, samplers, CSV io, fits."""

import json
import math
import random
from fractions import Fraction

import pytest

from twoway.automata import pfa_exact
from twoway.boolfn import (
    ComposedFunction,
    and_gadget,
    eq_language,
    ints_language,
    lifted_language,
    xor_fn,
)
from twoway.errors import InputError, SpecError
from twoway.handcrafted import PrimeTable, build_eq_pfa
from twoway.harness import (
    _EqPfaFast,
    _pair_iter,
    _sample_pair,
    SweepRow,
    certificate_check,
    fit_scaling,
    read_rows,
    sweep_ts,
    write_rows,
)


def payload(x: str, y: str) -> str:
    return x + "#" * len(x) + y


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_fast_evaluator_matches_step_runner(n):
    machine = build_eq_pfa(n)
    fast = _EqPfaFast(n)
    rng = random.Random(n)
    pairs = {(format(rng.randrange(1 << n), f"0{n}b"),
              format(rng.randrange(1 << n), f"0{n}b")) for _ in range(12)}
    pairs.add(("1" * n, "1" * n))
    for x, y in pairs:
        res = pfa_exact(machine, payload(x, y))
        assert fast.prob(x, y) == float(res.accept_probability)
        assert fast.t_run == res.t_max
        assert fast.census(x, y) == res.visited


def _census_pairs(n, count):
    rng = random.Random(f"census:{n}")
    pairs = [(format(rng.getrandbits(n), f"0{n}b"), format(rng.getrandbits(n), f"0{n}b"))
             for _ in range(count)]
    # leading zeros repeat the residue 0 in both reads; after "01" the y read
    # holds 2^16 = -1 mod 65537, which a 16-bit residue would wrap onto that 0
    return pairs + [("0" * n, "0" * n), ("0" * (n - 1) + "1", "01" + "0" * (n - 2))]


def test_census_shortcut_matches_the_step_runner():
    n = 12
    fast = _EqPfaFast(n)
    # both kinds of prime column occur: 2 has order <= 12 mod some primes only
    assert 0 < fast.short_primes.size < fast.count
    machine = build_eq_pfa(n)
    for x, y in _census_pairs(n, 6):
        res = pfa_exact(machine, payload(x, y))
        tags = [s[0] for s in res.origin_states if isinstance(s, tuple)]
        assert fast.b_census(x) == tags.count("b")
        assert fast.r_census(y) == tags.count("r")
        assert fast.census(x, y) == res.visited


def _direct_census(primes, x, y):
    """Distinct ("b", p, pow, a) and ("r", p, a, b) states summed over the
    primes, counted one prime at a time from the machine's update rules."""
    b_states = r_states = 0
    x_bits = [ch == "1" for ch in reversed(x)]
    y_bits = [ch == "1" for ch in y]
    for p in primes:
        pw, a = 1, 0
        seen = {(pw, a)}
        for bit in x_bits:
            if bit:
                a = (a + pw) % p
            pw = 2 * pw % p
            seen.add((pw, a))
        b_states += len(seen)
        b, residues = 0, set()
        for bit in y_bits:
            b = (2 * b + bit) % p
            residues.add(b)
        r_states += len(residues)
    return b_states, r_states


def test_census_shortcut_matches_a_direct_count_past_16_bit_primes():
    n = 257                          # first side length with primes above 65535
    fast = _EqPfaFast(n)
    assert int(fast.primes.max()) > 0xFFFF
    primes = PrimeTable.for_side_length(n).primes
    for x, y in _census_pairs(n, 1):
        b_states, r_states = _direct_census(primes, x, y)
        assert fast.b_census(x) == b_states
        assert fast.r_census(y) == r_states
        assert fast.census(x, y) == fast.shared + b_states + r_states


def test_sweep_exhausts_small_sides_and_matches_membership():
    dfa_row, = sweep_ts("eq-dfa", [4])
    assert dfa_row.member_err == 0.0 and dfa_row.nonmember_err == 0.0
    pfa_row, = sweep_ts("eq-pfa", [4])
    assert pfa_row.member_err == 0.0
    # worst n=4 non-member differs by 12, fooling 2 of the 6 primes up to 16
    assert pfa_row.nonmember_err == pytest.approx(float(Fraction(1, 3)))
    assert pfa_row.t_max == 9 * 4 + 4
    ints_row, = sweep_ts("grover-ints", [4])
    assert ints_row.nonmember_err == 0.0          # one-sided
    assert ints_row.member_err <= 1 / 3
    par_row, = sweep_ts("exact-parity-lifted", [4])
    assert par_row.member_err <= 1e-9 and par_row.nonmember_err <= 1e-9
    for row in (dfa_row, pfa_row, ints_row, par_row):
        assert row.s_visited <= row.s_declared + 1e-9
        assert row.ts == row.t_max * row.s_declared


@pytest.mark.parametrize("family", ["eq-pfa", "eq-dfa"])
def test_a_zero_error_names_no_worst_input(family):
    one, two = sweep_ts(family, [1, 2])
    # at n=1 the prime 2 separates 0 from 1: no pair has an error to name
    assert (one.member_err, one.nonmember_err) == (0.0, 0.0)
    assert one.worst_member == one.worst_nonmember == ""
    assert two.member_err == 0.0 and two.worst_member == ""
    if family == "eq-pfa":
        # 0 and 2 agree mod the prime 2 only: half the primes up to 4
        assert (two.nonmember_err, two.worst_nonmember) == (0.5, "00|10")
    else:
        assert (two.nonmember_err, two.worst_nonmember) == (0.0, "")


def test_pair_iter_switches_to_sampling():
    lang = eq_language(2)
    assert len(list(_pair_iter(lang, 2, 99, 0))) == 16    # exhaustive
    big = list(_pair_iter(eq_language(9), 9, 3, 0))
    assert len(big) == 6                                   # 3 per class


@pytest.mark.parametrize("lang_builder", [
    eq_language,
    ints_language,
    lambda n: lifted_language(ComposedFunction(xor_fn(n), and_gadget())),
])
def test_sampler_hits_the_requested_class(lang_builder):
    n = 32
    lang = lang_builder(n)
    rng = random.Random(7)
    for want in (1, 0):
        for _ in range(50):
            x, y = _sample_pair(lang, n, rng, want)
            assert len(x) == len(y) == n
            assert lang.value(x, y) == want


def test_csv_round_trip_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows(sweep_ts("eq-pfa", [3, 4], seed=1), a)
    write_rows(sweep_ts("eq-pfa", [3, 4], seed=1), b)
    # wall time differs between runs but never reaches the CSV
    assert a.read_bytes() == b.read_bytes()
    rows = read_rows(a)
    assert [(r.family, r.n) for r in rows] == [("eq-pfa", 3), ("eq-pfa", 4)]
    c = tmp_path / "c.csv"
    write_rows(rows, c)
    assert a.read_bytes() == c.read_bytes()


def test_sidecar_records_achieving_inputs(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows(sweep_ts("eq-pfa", [4]), path)
    meta = json.loads((tmp_path / "rows.csv.meta.json").read_text())
    assert len(meta) == 1 and meta[0]["family"] == "eq-pfa" and meta[0]["n"] == 4
    assert meta[0]["wall_seconds"] > 0
    x, y = meta[0]["worst_nonmember"].split("|")
    assert abs(int(x, 2) - int(y, 2)) % 6 == 0    # difference divisible by 2 and 3


def synthetic_rows(ns, ts_of):
    return [
        SweepRow(family="synthetic", n=n, t_max=0, s_declared=0.0,
                 s_visited=0.0, ts=ts_of(n), member_err=0.0, nonmember_err=0.0)
        for n in ns
    ]


def test_fit_recovers_quadratic_slope():
    rows = synthetic_rows([8, 16, 32, 64, 128], lambda n: 3.0 * n * n)
    fit = fit_scaling(rows)
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(3.0), abs=1e-9)
    assert fit.residual < 1e-12
    assert fit.rows_used == 5


def test_fit_log_correction():
    rows = synthetic_rows([8, 16, 32, 64], lambda n: 5.0 * n * n * math.log2(n))
    raw = fit_scaling(rows)
    corrected = fit_scaling(rows, log_correction="divide-by-log-n")
    assert corrected.slope == pytest.approx(2.0, abs=1e-9)
    assert raw.slope > 2.05
    assert corrected.log_correction == "divide-by-log-n"


def test_fit_input_validation():
    rows = synthetic_rows([8, 16, 32, 64], lambda n: float(n))
    with pytest.raises(InputError):
        fit_scaling(rows, log_correction="sqrt")
    with pytest.raises(InputError):
        fit_scaling(rows[:3])
    narrow = synthetic_rows([8, 16, 32, 48], lambda n: float(n))
    with pytest.raises(InputError):
        fit_scaling(narrow)


def test_certificate_check():
    assert certificate_check(4.0, 40, 3, 4) == 13
    with pytest.raises(SpecError):
        certificate_check(4.0, 40, 11, 4)          # 11 crossings * 4 > 40 steps
    with pytest.raises(SpecError):
        certificate_check(1.5, 6, 3, 2)            # 7 bits > 1.5 * 3 + 1


def test_sweep_validates_family_and_size():
    with pytest.raises(InputError):
        sweep_ts("eq-qfa", [4])
    with pytest.raises(InputError):
        sweep_ts("exact-parity-lifted", [3])       # parity blocks come in pairs
    for family, samples in (("eq-dfa", 0), ("grover-ints", -2)):
        with pytest.raises(InputError, match="samples per n must be >= 1"):
            sweep_ts(family, [9], samples_per_n=samples)
