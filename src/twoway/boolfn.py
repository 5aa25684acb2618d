"""Boolean functions, two-party gadgets, composed functions, and the padded
languages they induce.

A composed function f = h(g(x_1,y_1), ..., g(x_p,y_p)) splits its 2n input
bits between two sides: x and y each have n = p*m bits, block i of each side
feeds the i-th gadget copy. The induced language over {0,1,#} is

    L_f(n) = { x #^n y : |x| = |y| = n, f(x, y) = 1 }

so member strings have length exactly 3n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Callable, Sequence

from .errors import InputError

Bits = tuple[int, ...]


def as_bits(value: Sequence[int] | str, length: int | None = None) -> Bits:
    """Normalize a bit-vector given as a 0/1 string or int sequence."""
    if isinstance(value, str):
        try:
            bits = tuple(int(ch) for ch in value)
        except ValueError:
            raise InputError(f"not a bit string: {value!r}") from None
    else:
        bits = tuple(int(b) for b in value)
    if any(b not in (0, 1) for b in bits):
        raise InputError(f"non-binary digit in {value!r}")
    if length is not None and len(bits) != length:
        raise InputError(f"expected {length} bits, got {len(bits)}")
    return bits


@dataclass(frozen=True)
class BoolFunction:
    """A total Boolean function on a fixed number of input bits."""

    name: str
    arity: int
    fn: Callable[[Bits], int]

    def __call__(self, bits: Sequence[int] | str) -> int:
        return int(self.fn(as_bits(bits, self.arity)))

    def truth_table(self) -> tuple[int, ...]:
        """Table indexed by the integer whose MSB is bit 1 of the input."""
        if self.arity > 20:
            raise InputError(f"truth table too large for arity {self.arity}")
        size = 1 << self.arity
        return tuple(
            self.fn(tuple((v >> (self.arity - 1 - j)) & 1 for j in range(self.arity)))
            for v in range(size)
        )


def or_fn(p: int) -> BoolFunction:
    return BoolFunction(f"or:{p}", p, lambda bits: int(any(bits)))


def and_fn(p: int) -> BoolFunction:
    return BoolFunction(f"and:{p}", p, lambda bits: int(all(bits)))


def xor_fn(p: int) -> BoolFunction:
    return BoolFunction(f"xor:{p}", p, lambda bits: reduce(lambda a, b: a ^ b, bits, 0))


def eval_ne(bits: Sequence[int] | str) -> int:
    """Recursive not-all-equal function on 3^d bits.

    Base: one bit, identity. Step: split into three equal blocks, recurse,
    output 0 iff the three sub-values are all equal... which for bits means
    the standard "not all three equal" on the sub-results.

    Arity must be an exact power of 3; anything else is rejected.
    """
    b = as_bits(bits)
    size = len(b)
    if size == 1:
        return b[0]
    if size % 3 != 0:
        raise InputError(f"arity {size} is not a power of 3")
    third = size // 3
    sub = (eval_ne(b[:third]), eval_ne(b[third : 2 * third]), eval_ne(b[2 * third :]))
    return int(not (sub[0] == sub[1] == sub[2]))


def ne_fn(p: int) -> BoolFunction:
    q = p
    while q > 1:
        if q % 3 != 0:
            raise InputError(f"arity {p} is not a power of 3")
        q //= 3
    return BoolFunction(f"ne:{p}", p, lambda bits: eval_ne(bits))


@dataclass(frozen=True)
class Gadget:
    """Two-party inner function g: {0,1}^m x {0,1}^m -> {0,1}."""

    name: str
    width: int
    fn: Callable[[Bits, Bits], int]

    def __call__(self, a: Sequence[int] | str, b: Sequence[int] | str) -> int:
        return int(self.fn(as_bits(a, self.width), as_bits(b, self.width)))

    def table(self) -> tuple[tuple[int, ...], ...]:
        """table[a][b] with a, b read MSB-first as integers."""
        size = 1 << self.width
        def unpack(v: int) -> Bits:
            return tuple((v >> (self.width - 1 - j)) & 1 for j in range(self.width))
        return tuple(tuple(self.fn(unpack(a), unpack(b)) for b in range(size)) for a in range(size))


def eval_ip(a: Sequence[int] | str, b: Sequence[int] | str) -> int:
    """Inner product mod 2 of two equal-length bit vectors."""
    av, bv = as_bits(a), as_bits(b)
    if len(av) != len(bv):
        raise InputError("inner product needs equal lengths")
    return sum(x * y for x, y in zip(av, bv)) & 1


def and_gadget() -> Gadget:
    return Gadget("and1", 1, lambda a, b: a[0] & b[0])


def ip_gadget(m: int) -> Gadget:
    if m < 1:
        raise InputError("gadget width must be >= 1")
    return Gadget(f"ip:{m}", m, lambda a, b: eval_ip(a, b))


def default_gadget_width(p: int) -> int:
    """Default inner width for lifted constructions: ceil(log2 p), min 1."""
    return max(1, math.ceil(math.log2(p))) if p > 1 else 1


@dataclass(frozen=True)
class ComposedFunction:
    """f = h compose g blockwise: f(x, y) = h(g(x_1,y_1), ..., g(x_p,y_p))."""

    outer: BoolFunction
    gadget: Gadget

    @property
    def blocks(self) -> int:
        return self.outer.arity

    @property
    def side_bits(self) -> int:
        return self.outer.arity * self.gadget.width

    @property
    def name(self) -> str:
        return f"{self.outer.name}.{self.gadget.name}"

    def inner_word(self, x: Sequence[int] | str, y: Sequence[int] | str) -> Bits:
        m = self.gadget.width
        xv = as_bits(x, self.side_bits)
        yv = as_bits(y, self.side_bits)
        # the blocks of validated sides need no second validation
        g = self.gadget.fn
        return tuple(
            int(g(xv[i * m : (i + 1) * m], yv[i * m : (i + 1) * m]))
            for i in range(self.blocks)
        )


def compose_eval(f: ComposedFunction, x: Sequence[int] | str, y: Sequence[int] | str) -> int:
    """Evaluate the composed function on a full (x, y) pair."""
    return int(f.outer.fn(f.inner_word(x, y)))


# --- languages -------------------------------------------------------------

HASH = "#"
PAYLOAD_ALPHABET = ("0", "1", HASH)


@dataclass(frozen=True)
class LanguageSpec:
    """A padded two-party language over {0,1,#} at a fixed size n.

    kind is one of "lifted", "eq", "ints", "rne"; lifted carries the composed
    function. ints and rne are fixed lifted families (or/ne over the 1-bit and
    gadget); eq is string equality of the two sides.
    """

    kind: str
    n: int
    composed: ComposedFunction | None = field(default=None)

    def __post_init__(self):
        if self.n < 1:
            raise InputError("language size must be >= 1")
        if self.kind == "lifted":
            if self.composed is None:
                raise InputError("lifted language needs a composed function")
            if self.composed.side_bits != self.n:
                raise InputError(
                    f"composed function covers {self.composed.side_bits} bits per side, not {self.n}"
                )
        elif self.kind == "rne":
            ne_fn(self.n)  # rejects non-powers-of-3
        elif self.kind not in ("eq", "ints"):
            raise InputError(f"unknown language kind {self.kind!r}")

    @property
    def name(self) -> str:
        if self.kind == "lifted":
            return f"lifted[{self.composed.name}]:{self.n}"
        return f"{self.kind}:{self.n}"

    def split(self, w: str) -> tuple[str, str] | None:
        """Return (x, y) when w has the exact form x #^n y, else None."""
        n = self.n
        if len(w) != 3 * n:
            return None
        x, mid, y = w[:n], w[n : 2 * n], w[2 * n :]
        if mid != HASH * n:
            return None
        if any(c not in "01" for c in x) or any(c not in "01" for c in y):
            return None
        return x, y

    def value(self, x: Sequence[int] | str, y: Sequence[int] | str) -> int:
        xv = as_bits(x, self.n)
        yv = as_bits(y, self.n)
        if self.kind == "eq":
            return int(xv == yv)
        if self.kind == "ints":
            return int(any(a & b for a, b in zip(xv, yv)))
        if self.kind == "rne":
            return eval_ne(tuple(a & b for a, b in zip(xv, yv)))
        return compose_eval(self.composed, xv, yv)


def membership(lang: LanguageSpec, w: str) -> bool:
    """Exact membership of a payload string in the language."""
    if any(c not in PAYLOAD_ALPHABET for c in w):
        raise InputError(f"symbol outside payload alphabet in {w!r}")
    parts = lang.split(w)
    if parts is None:
        return False
    return bool(lang.value(parts[0], parts[1]))


def eq_language(n: int) -> LanguageSpec:
    return LanguageSpec("eq", n)


def ints_language(n: int) -> LanguageSpec:
    return LanguageSpec("ints", n)


def rne_language(n: int) -> LanguageSpec:
    return LanguageSpec("rne", n)


def lifted_language(f: ComposedFunction) -> LanguageSpec:
    return LanguageSpec("lifted", f.side_bits, f)


# --- identifier registry (CLI surface) --------------------------------------


def parse_function(ident: str) -> BoolFunction:
    """Function ids: or:<p>, xor:<p>, and:<p>, ne:<p>."""
    head, _, arg = ident.partition(":")
    if not arg:
        raise InputError(f"function id needs an arity, e.g. or:3 (got {ident!r})")
    try:
        p = int(arg)
    except ValueError:
        raise InputError(f"bad arity in {ident!r}") from None
    if p < 1:
        raise InputError("arity must be >= 1")
    builders = {"or": or_fn, "xor": xor_fn, "and": and_fn, "ne": ne_fn}
    if head not in builders:
        raise InputError(f"unknown function family {head!r}")
    return builders[head](p)


def parse_gadget(ident: str) -> Gadget:
    """Gadget ids: and1, ip:<m>."""
    if ident == "and1":
        return and_gadget()
    head, _, arg = ident.partition(":")
    if head == "ip" and arg:
        try:
            return ip_gadget(int(arg))
        except ValueError:
            raise InputError(f"bad gadget width in {ident!r}") from None
    raise InputError(f"unknown gadget id {ident!r}")


def parse_language(ident: str) -> LanguageSpec:
    """Language ids: eq:<n>, ints:<n>, rne:<n>, or composed `<fn>.<gadget>`
    such as or:4.and1 or xor:2.ip:3."""
    head, _, arg = ident.partition(":")
    if head in ("eq", "ints", "rne") and arg and "." not in arg:
        try:
            return LanguageSpec(head, int(arg))
        except ValueError:
            raise InputError(f"bad size in {ident!r}") from None
    if "." in ident:
        fn_part, _, gadget_part = ident.partition(".")
        return lifted_language(ComposedFunction(parse_function(fn_part), parse_gadget(gadget_part)))
    raise InputError(f"unknown language id {ident!r}")
