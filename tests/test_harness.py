"""Sweep machinery: fast equality evaluator, samplers, CSV io, fits."""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from twoway.automata import pfa_exact
from twoway.boolfn import (
    ComposedFunction,
    and_fn,
    and_gadget,
    bit_string,
    eq_language,
    ints_language,
    lifted_language,
    xor_fn,
)
from twoway.errors import InputError, SpecError
from twoway.qquery import exact_parity, grover_or
from twoway.compiler import compile_query_to_qcfa, run_compiled
from twoway.handcrafted import PrimeTable, build_eq_dfa, build_eq_pfa
from twoway import harness
from twoway.harness import (
    _EqPfaFast,
    _pair_bits,
    _random_bits,
    SweepRow,
    certificate_check,
    fit_scaling,
    read_rows,
    sweep_ts,
    write_rows,
)
from per_pair import pfa_census, pfa_prob, per_pair_row, row_fields, row_pairs, word


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
        assert pfa_prob(fast, x, y) == float(res.accept_probability)
        assert fast.t_run == res.t_max
        assert pfa_census(fast, x, y) == res.visited


def b_census(fast, x):
    return int(fast.x_census(word(x))[0])


def r_census(fast, y):
    return int(fast.y_census(word(y))[0][0])


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
        assert b_census(fast, x) == tags.count("b")
        assert r_census(fast, y) == tags.count("r")
        assert pfa_census(fast, x, y) == res.visited


def _direct_census(primes, x, y):
    """Distinct ("b", p, pow, a) and ("r", p, a, b) states summed over the
    primes, counted one prime at a time from the machine's update rules."""
    b_states = 0
    x_bits = [ch == "1" for ch in reversed(x)]
    for p in primes:
        pw, a = 1, 0
        seen = {(pw, a)}
        for bit in x_bits:
            if bit:
                a = (a + pw) % p
            pw = 2 * pw % p
            seen.add((pw, a))
        b_states += len(seen)
    return b_states, _direct_r_census(primes, y)


def _direct_r_census(primes, y):
    """Distinct running residues of the y read, summed over the primes."""
    y_bits = [ch == "1" for ch in y]
    r_states = 0
    for p in primes:
        b, residues = 0, set()
        for bit in y_bits:
            b = (2 * b + bit) % p
            residues.add(b)
        r_states += len(residues)
    return r_states


def test_census_shortcut_matches_a_direct_count_past_16_bit_primes():
    n = 257                          # first side length with primes above 65535
    fast = _EqPfaFast(n)
    assert int(fast.primes.max()) > 0xFFFF
    primes = PrimeTable.for_side_length(n).primes
    for x, y in _census_pairs(n, 1):
        b_states, r_states = _direct_census(primes, x, y)
        assert b_census(fast, x) == b_states
        assert r_census(fast, y) == r_states
        assert pfa_census(fast, x, y) == fast.shared + b_states + r_states


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 64, 256])
def test_r_census_matches_a_direct_count(n):
    # the y read is written 32 steps at a time: below, at and past one
    # block, and with a tail; its reduction wraps unsigned values, which
    # the RuntimeWarning filter would turn into a failure if numpy warned
    fast = _EqPfaFast(n)
    primes = PrimeTable.for_side_length(n).primes
    rng = random.Random(f"r-census:{n}")
    words = ["0" * n, "1" * n] + [format(rng.getrandbits(n), f"0{n}b")
                                  for _ in range(1 if n == 256 else 3)]
    for y in words:
        assert r_census(fast, y) == _direct_r_census(primes, y), y


def _block_words(n):
    """Eight sampled words of a row and the all-zero and all-one words: ten,
    so blocks of 3 words leave a ragged tail of one."""
    xs, ys, _, _ = _pair_bits(eq_language(n), n, 2, 0)
    return np.concatenate([xs, ys, np.zeros((1, n), np.uint8), np.ones((1, n), np.uint8)])


@pytest.mark.parametrize("block", [1, 2, 3])
def test_census_blocks_equal_one_block(block, monkeypatch):
    n = 12
    fast, words = _EqPfaFast(n), _block_words(n)
    whole_x, (whole_y, whole_res) = fast.x_census(words), fast.y_census(words)
    sizes, blocks = [], harness._blocks

    def spy(*args):
        for lo, bits, codes in blocks(*args):
            sizes.append(len(bits))
            yield lo, bits, codes

    monkeypatch.setattr(harness, "_blocks", spy)
    want = {1: [1] * 10, 2: [2] * 5, 3: [3, 3, 3, 1]}[block]
    monkeypatch.setattr(harness, "CENSUS_CELLS", block * fast.short_primes.size * (n + 1))
    assert np.array_equal(fast.x_census(words), whole_x) and sizes == want
    sizes.clear()
    monkeypatch.setattr(harness, "CENSUS_CELLS", block * fast.count * n)
    census, res = fast.y_census(words)
    assert np.array_equal(census, whole_y) and np.array_equal(res, whole_res)
    assert sizes == want
    strings = [bit_string(w) for w in words]
    for i, x in enumerate(strings):
        for j, y in enumerate(strings):
            assert fast.shared + whole_x[i] + whole_y[j] == pfa_census(fast, x, y)


@pytest.mark.parametrize("block", [1, 2, 3])
@pytest.mark.parametrize("n,samples", [(4, 12), (12, 5)])
def test_eq_pfa_row_in_blocks_equals_one_block(n, samples, block, monkeypatch):
    # the exhaustive n=4 row has 16 words a side and the sampled n=12 row
    # 10: y blocks of 3 words leave a ragged tail of one on both
    want, = sweep_ts("eq-pfa", [n], samples)
    monkeypatch.setattr(harness, "CENSUS_CELLS", block * _EqPfaFast(n).count * n)
    assert row_fields(sweep_ts("eq-pfa", [n], samples)[0]) == row_fields(want)


@pytest.mark.parametrize("n", [1, 2, 12, 257])
def test_y_walk_ends_on_the_residues(n):
    fast = _EqPfaFast(n)
    words = _block_words(n) if n > 2 else np.array(
        [[(v >> i) & 1 for i in range(n)] for v in range(1 << n)], dtype=np.uint8)
    _, res = fast.y_census(words)
    for w, row in zip(words, res):
        v = int(bit_string(w), 2)
        assert row.tolist() == [v % p for p in fast.prime_list]


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


@pytest.mark.parametrize("family,n", [("grover-ints", 4), ("exact-parity-lifted", 4),
                                      ("grover-ints", 16), ("exact-parity-lifted", 16),
                                      ("eq-pfa", 4), ("eq-pfa", 12)])
def test_compiled_row_equals_one_built_pair_by_pair(family, n):
    # a row is one _row call on its runs' arrays (the exhaustive eq-pfa
    # row's from per-value parts broadcast over the pairs); the runs made
    # pair by pair, as many as the row has, must make the same row, worst
    # inputs included
    runs = []
    if family == "eq-pfa":
        lang, fast, machine = eq_language(n), _EqPfaFast(n), build_eq_pfa(n)
        for x, y in row_pairs(lang, n, 12):
            runs.append((x, y, pfa_prob(fast, x, y), fast.t_run, pfa_census(fast, x, y), 3))
    else:
        builder, lang = {
            "grover-ints": (grover_or, ints_language(n)),
            "exact-parity-lifted": (exact_parity,
                                    lifted_language(ComposedFunction(xor_fn(n), and_gadget()))),
        }[family]
        rep = compile_query_to_qcfa(builder(n), and_gadget(), n)
        machine = rep.machine
        for x, y in row_pairs(lang, n, 12):
            r = run_compiled(rep, x, y)
            runs.append((x, y, float(r.accept_probability), r.t_max, r.visited,
                         r.crossings_max))
    assert len(runs) == (4 ** n if n <= 8 else 24)
    want = per_pair_row(family, machine, lang, runs)
    assert row_fields(sweep_ts(family, [n])[0]) == row_fields(want)


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


def test_pair_bits_switches_to_sampling():
    xs, ys, xi, yi = _pair_bits(eq_language(2), 2, 99, 0)
    assert xs.shape == ys.shape == (4, 2)                 # exhaustive: each word once
    assert len(xi) == len(yi) == 16                       # and every pair of them
    assert xi[:5].tolist() == [0, 0, 0, 0, 1] and yi[:5].tolist() == [0, 1, 2, 3, 0]
    xs, ys, xi, yi = _pair_bits(eq_language(9), 9, 3, 0)
    assert xs.shape == ys.shape == (6, 9)                 # 3 per class
    assert xi.tolist() == yi.tolist() == list(range(6))   # pair i is sample i


def test_sampled_rows_keep_their_draw_order():
    # the sampled rows' CSV bytes and worst inputs rest on the order of the
    # seeded draws; these are the values the string-joined sampler produced
    n = 9
    first = {
        "eq": (eq_language(n), ("110001100", "110001100")),
        "ints": (ints_language(n), ("110011001", "111111100")),
        "lifted-xor": (lifted_language(ComposedFunction(xor_fn(n), and_gadget())),
                       ("100111111", "000110010")),
    }
    for lang, pair in first.values():
        assert row_pairs(lang, n, 12)[0] == pair
    # exact-parity-lifted needs even n: its row is the sampled n=10 one
    worst = {
        ("eq-pfa", 9): ("", "101000100|111101001"),
        ("grover-ints", 9): ("010010000|111101101", ""),
        ("exact-parity-lifted", 10): ("0101110000|0110110101", ""),
    }
    for (family, size), want in worst.items():
        row, = sweep_ts(family, [size])
        assert (row.worst_member, row.worst_nonmember) == want, family


@pytest.mark.parametrize("lang_builder", [
    eq_language,
    ints_language,
    lambda n: lifted_language(ComposedFunction(xor_fn(n), and_gadget())),
])
def test_sampler_hits_the_requested_class(lang_builder):
    # a sampled row's first half are members and the rest non-members, by
    # the one-pair value (_pair_bits fixes a lifted sample's class)
    n = 32
    lang = lang_builder(n)
    xs, ys, _, _ = _pair_bits(lang, n, 50, 7)
    assert xs.shape == ys.shape == (100, n)
    assert [lang.value(x, y) for x, y in zip(xs.tolist(), ys.tolist())] == [1] * 50 + [0] * 50


def test_a_sample_the_lifted_fix_cannot_reach_raises():
    # a lifted and over 32 blocks: one flipped coordinate never makes a member
    lang = lifted_language(ComposedFunction(and_fn(32), and_gadget()))
    with pytest.raises(SpecError, match="sampler produced the wrong class for lifted"):
        _pair_bits(lang, 32, 2, 0)


def test_random_bits_draw_what_randrange_draws():
    # the same bits and the same generator state afterwards as randrange(2)
    # on the running Python, whose rejection rule _random_bits restates
    for seed in (0, 1, 7, "3:eq:256"):
        for n in (0, 1, 2, 9, 64, 256, 1000):
            mine, theirs = random.Random(seed), random.Random(seed)
            assert _random_bits(mine, n) == [theirs.randrange(2) for _ in range(n)]
            assert mine.getstate() == theirs.getstate()


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
    assert type(certificate_check(4.0, 40, 3, 4)) is int
    assert certificate_check(4.0, np.array([40, 40]), np.array([3, 1]), 4).tolist() == [13, 5]
    # runs in input order: the first failing run raises, whichever bound it fails
    with pytest.raises(SpecError, match="11 crossings"):
        certificate_check(4.0, np.array([40, 40, 6]), np.array([3, 11, 3]), 4)
    with pytest.raises(SpecError, match="7 transcript bits"):
        certificate_check(1.5, np.array([6, 6, 6]), np.array([1, 3, 4]), 2)
    with pytest.raises(SpecError):
        certificate_check(4.0, 40, 11, 4)          # 11 crossings * 4 > 40 steps
    with pytest.raises(SpecError):
        certificate_check(1.5, 6, 3, 2)            # 7 bits > 1.5 * 3 + 1


def test_sweep_rejects_a_census_over_the_declared_bound(monkeypatch):
    # the exhaustive eq-dfa row at n=4 visits at most 13 states a run: a
    # machine declaring 13 passes, one declaring 12 is refused
    bound = [13]

    def declaring(n):
        m = build_eq_dfa(n)
        object.__setattr__(m.states, "declared_bound", bound[0])
        return m
    monkeypatch.setattr(harness, "build_eq_dfa", declaring)
    assert 2 ** sweep_ts("eq-dfa", [4])[0].s_visited == pytest.approx(13)
    bound[0] = 12
    with pytest.raises(SpecError, match="eq-dfa n=4: visited census exceeds the declared bound"):
        sweep_ts("eq-dfa", [4])


def test_sweep_validates_family_and_size():
    with pytest.raises(InputError):
        sweep_ts("eq-qfa", [4])
    with pytest.raises(InputError):
        sweep_ts("exact-parity-lifted", [3])       # parity blocks come in pairs
    for family, samples in (("eq-dfa", 0), ("grover-ints", -2)):
        with pytest.raises(InputError, match="samples per n must be >= 1"):
            sweep_ts(family, [9], samples_per_n=samples)

