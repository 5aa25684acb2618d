"""Truth tables and language membership against brute-force definitions."""

import itertools

import pytest

from twoway.boolfn import (
    ComposedFunction,
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
    parse_language,
    rne_language,
    xor_fn,
)
from twoway.errors import InputError


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


def test_rne_language_pairwise_and_then_neighbours():
    lang = rne_language(3)
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
    assert parse_language("eq:5").kind == "eq"
    lang = parse_language("xor:2.ip:2")
    assert lang.kind == "lifted" and lang.n == 4
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


@pytest.mark.parametrize("ident", ["xor:2.and1", "xor:2.ip:2"])
def test_composed_values_validate_once_and_still_reject_malformed_sides(ident):
    lang = parse_language(ident)
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
