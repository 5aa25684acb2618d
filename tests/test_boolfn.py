"""Truth tables and language membership against brute-force definitions."""

import itertools

import numpy as np
import pytest

from twoway.boolfn import (
    ComposedFunction,
    Gadget,
    and_fn,
    and_gadget,
    as_bits,
    compose_eval,
    eq_language,
    eval_ip,
    eval_ne,
    ints_language,
    ip_gadget,
    lifted_language,
    membership,
    ne_fn,
    or_fn,
    parse_function,
    parse_gadget,
    xor_fn,
)
from twoway.compiler import compile_query_to_qcfa
from twoway.errors import InputError
from twoway.qquery import grover_or


def bits(p):
    return itertools.product((0, 1), repeat=p)


def test_basic_functions_match_python_semantics():
    for z in bits(4):
        assert or_fn(4)(z) == int(any(z))
        assert and_fn(4)(z) == int(all(z))
        assert xor_fn(4)(z) == sum(z) % 2


def ne_reference(z):
    """Independent mirror of the recursive not-all-equal definition."""
    if len(z) == 1:
        return z[0]
    t = len(z) // 3
    sub = (ne_reference(z[:t]), ne_reference(z[t:2 * t]), ne_reference(z[2 * t:]))
    return int(not sub[0] == sub[1] == sub[2])


def test_ne_recursive_not_all_equal():
    for z in bits(3):
        assert eval_ne(z) == int(not z[0] == z[1] == z[2])
    for z in bits(9):
        assert eval_ne(z) == ne_reference(z)
        assert ne_fn(9)(z) == ne_reference(z)
    with pytest.raises(InputError):
        eval_ne((0, 1, 0, 1, 1))      # arity 5 is not a power of 3


def test_and_gadget_table():
    g = and_gadget()
    assert g.width == 1
    assert [[g((a,), (b,)) for b in (0, 1)] for a in (0, 1)] == [[0, 0], [0, 1]]
    assert g.table() == ((0, 0), (0, 1))


def test_ip_gadget_matches_inner_product():
    g = ip_gadget(3)
    for a in bits(3):
        for b in bits(3):
            expect = sum(x * y for x, y in zip(a, b)) % 2
            assert g(a, b) == expect == eval_ip(a, b)


def test_gadget_table_uses_msb_first_integer_rows():
    t = ip_gadget(2).table()
    assert len(t) == 4 and len(t[0]) == 4
    # row index 2 = bits (1,0); column 3 = bits (1,1); ip = 1
    assert t[2][3] == 1
    assert t[2][1] == 0


def test_composed_function_blocks():
    f = ComposedFunction(xor_fn(3), ip_gadget(2))
    assert f.blocks == 3 and f.side_bits == 6
    x, y = "101101", "011010"
    direct = 0
    for i in range(3):
        direct ^= eval_ip(x[2 * i:2 * i + 2], y[2 * i:2 * i + 2])
    assert compose_eval(f, x, y) == direct


@pytest.mark.parametrize("outer,closed", [
    (or_fn, lambda z: int(z != 0)),
    (xor_fn, lambda z: bin(z).count("1") % 2),
])
def test_compose_matches_closed_form_exhaustively(outer, closed):
    n = 8
    f = ComposedFunction(outer(n), and_gadget())
    words = [format(v, f"0{n}b") for v in range(1 << n)]
    for xv, x in enumerate(words):
        for yv, y in enumerate(words):
            assert compose_eval(f, x, y) == closed(xv & yv)


@pytest.mark.slow
def test_compose_matches_closed_form_n12():
    n = 12
    f = ComposedFunction(xor_fn(n), and_gadget())
    words = [format(v, f"0{n}b") for v in range(1 << n)]
    for xv, x in enumerate(words):
        for yv, y in enumerate(words):
            assert compose_eval(f, x, y) == bin(xv & yv).count("1") % 2


def test_eq_language_membership():
    lang = eq_language(3)
    assert membership(lang, "101###101")
    assert not membership(lang, "101###100")
    assert not membership(lang, "101##101")       # short separator
    assert not membership(lang, "1011###101")


def test_ints_language_is_set_intersection():
    lang = ints_language(4)
    assert lang.value("0110", "0100") == 1
    assert lang.value("0110", "1001") == 0
    assert membership(lang, "0110####0100")


def test_lifted_ne_and1_is_pairwise_and_then_neighbours():
    lang = lifted_language(ComposedFunction(ne_fn(3), and_gadget()))
    # z = x AND y bitwise, then recursive not-all-equal
    assert lang.value("110", "101") == eval_ne([1 & 1, 1 & 0, 0 & 1])


def test_lifted_language_names_and_split():
    lang = lifted_language(ComposedFunction(or_fn(2), ip_gadget(2)))
    assert lang.n == 4
    x, y = lang.split("0110" + "####" + "1001")
    assert (x, y) == ("0110", "1001")


def test_parsers_round_trip():
    assert parse_function("or:3").arity == 3
    assert parse_gadget("and1").width == 1
    assert parse_gadget("ip:2").width == 2
    with pytest.raises(InputError):
        parse_function("majority:3")
    with pytest.raises(InputError):
        parse_gadget("xor2")


def test_as_bits_validates():
    assert as_bits("0110") == (0, 1, 1, 0)
    assert as_bits([1, 0]) == (1, 0)
    with pytest.raises(InputError):
        as_bits("01x")
    with pytest.raises(InputError):
        as_bits("011", length=4)


def test_a_gadget_table_is_built_once_per_gadget():
    # values reads one cached table: two calls over ip:2 (4 x 4 entries)
    # call the gadget at most 16 times, and compiling over it adds none
    calls = []
    ip = ip_gadget(2)
    g = Gadget(ip.name, ip.width, lambda a, b: calls.append((a, b)) or ip.fn(a, b))
    lang = lifted_language(ComposedFunction(xor_fn(4), g))
    rng = np.random.default_rng(2)
    x, y = (rng.integers(0, 2, (8, lang.n), dtype=np.uint8) for _ in "xy")
    want = [compose_eval(lang.composed, a, b) == 1 for a, b in zip(x.tolist(), y.tolist())]
    calls.clear()
    assert lang.values(x, y).tolist() == lang.values(x, y).tolist() == want
    assert 0 < len(calls) <= 16
    built = len(calls)
    compile_query_to_qcfa(grover_or(4), g, lang.n)
    assert len(calls) == built
    assert not g.flips.flags.writeable


@pytest.mark.parametrize("ident", ["xor:2.and1", "xor:2.ip:2"])
def test_composed_values_validate_once_and_still_reject_malformed_sides(ident):
    fn_id, _, gadget_id = ident.partition(".")
    lang = lifted_language(ComposedFunction(parse_function(fn_id), parse_gadget(gadget_id)))
    f, n = lang.composed, lang.n
    m = f.gadget.width

    def by_gadget_calls(x, y):
        return f.outer([f.gadget(x[i:i + m], y[i:i + m]) for i in range(0, n, m)])

    for xs, ys in itertools.product(itertools.product("01", repeat=n), repeat=2):
        x, y = "".join(xs), "".join(ys)
        assert lang.value(x, y) == compose_eval(f, x, y) == by_gadget_calls(x, y)
    good, bad = "0" * n, "1" * (n - 1) + "2"
    for x, y, message in (
        (bad, good, f"non-binary digit in '{bad}'"),
        (good, bad, f"non-binary digit in '{bad}'"),
        (good, "x" * n, f"not a bit string: '{'x' * n}'"),
        (good[1:], good, f"expected {n} bits, got {n - 1}"),
        (good, good + "0", f"expected {n} bits, got {n + 1}"),
    ):
        for call in (lambda: compose_eval(f, x, y), lambda: lang.value(x, y),
                     lambda: f.inner_word(x, y)):
            with pytest.raises(InputError) as err:
                call()
            assert str(err.value) == message


def scalar_value(lang, x, y) -> int:
    """A language's value on one pair by its scalar definition."""
    if lang.kind == "eq":
        return int(x == y)
    if lang.kind == "ints":
        return int(any(a & b for a, b in zip(x, y)))
    return compose_eval(lang.composed, x, y)


def languages(n):
    """eq, ints and lifted or/and/xor over and1 (and ip:2 at even n)."""
    out = [eq_language(n), ints_language(n)]
    for gadget, width in ((and_gadget(), 1), (ip_gadget(2), 2)):
        if n % width == 0:
            out += [lifted_language(ComposedFunction(outer(n // width), gadget))
                    for outer in (or_fn, and_fn, xor_fn)]
    return out


EXHAUSTIVE = [lang for n in (1, 2, 3, 4) for lang in languages(n)] + [
    lifted_language(ComposedFunction(ne_fn(3), and_gadget()))]


@pytest.mark.parametrize("lang", EXHAUSTIVE, ids=lambda lang: lang.name)
def test_values_match_the_scalar_forms_on_every_pair(lang):
    n = lang.n
    words = list(itertools.product((0, 1), repeat=n))
    xs = np.array([x for x in words for _ in words], dtype=np.uint8).reshape(-1, n)
    ys = np.array(words * len(words), dtype=np.uint8).reshape(-1, n)
    got = lang.values(xs, ys)
    assert got.dtype == bool and got.shape == (len(words) ** 2,)
    assert got.tolist() == [bool(scalar_value(lang, x, y))
                            for x, y in zip(xs.tolist(), ys.tolist())]


SEEDED = [lifted_language(ComposedFunction(ne_fn(9), and_gadget()))] + [
    lang for n in (512, 1024) for lang in languages(n)]


@pytest.mark.parametrize("lang", SEEDED, ids=lambda lang: lang.name)
def test_values_match_the_scalar_forms_on_seeded_rows(lang):
    # 64 random rows: 16 with y = x and 8 with x = y = all ones, so that eq
    # and the lifted and have members, and 8 with y = not x, so that ints has
    # non-members
    n = lang.n
    rng = np.random.default_rng(n)
    xs, ys = rng.integers(0, 2, size=(2, 64, n), dtype=np.uint8)
    ys[:16] = xs[:16]
    xs[16:24] = ys[16:24] = 1
    ys[24:32] = 1 - xs[24:32]
    want = [bool(scalar_value(lang, x, y)) for x, y in zip(xs.tolist(), ys.tolist())]
    assert lang.values(xs, ys).tolist() == want
    assert [lang.value(x, y) for x, y in zip(xs.tolist(), ys.tolist())] == want


@pytest.mark.parametrize("lang", [eq_language(4), ints_language(4),
                                  lifted_language(ComposedFunction(xor_fn(2), ip_gadget(2)))],
                         ids=lambda lang: lang.name)
def test_values_reject_what_value_rejects(lang):
    good = np.zeros((3, 4), dtype=np.uint8)
    bad = good.copy()
    bad[1, 2] = 2
    for xs, ys in ((bad, good), (good, bad), (good[:, 1:], good[:, 1:]),
                   (good, np.zeros((3, 5), dtype=np.uint8)), (good[0], good[0])):
        with pytest.raises(InputError):
            lang.values(xs, ys)
