"""Boolean functions, two-party gadgets, composed functions, and the padded
languages they induce.

A composed function f = h(g(x_1,y_1), ..., g(x_p,y_p)) splits its 2n input
bits between two sides: x and y each have n = p*m bits, block i of each side
feeds the i-th gadget copy. The induced language over {0,1,#} is

    L_f(n) = { x #^n y : |x| = |y| = n, f(x, y) = 1 }

so member strings have length exactly 3n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Sequence

import numpy as np

from .errors import InputError
from .kernels import gadget_words

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


def bit_string(bits) -> str:
    """The 0/1 string of a numpy row of bits."""
    return "".join("01"[b] for b in bits.tolist())


def is_bit_matrix(bits, columns: int) -> bool:
    """Whether a numpy array is a matrix of `columns` columns whose entries
    are integers 0 and 1."""
    return (bits.ndim == 2 and bits.shape[1] == columns and bits.dtype.kind in "biu"
            and not ((bits < 0) | (bits > 1)).any())


@dataclass(frozen=True)
class BoolFunction:
    """A total Boolean function on a fixed number of input bits; on_rows
    gives it on a bit matrix's rows (bool array), as lifted languages need."""

    name: str
    arity: int
    fn: Callable[[Bits], int]
    on_rows: Callable[[np.ndarray], np.ndarray] | None = None

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
    return BoolFunction(f"or:{p}", p, lambda bits: int(any(bits)), lambda z: z.any(axis=1))


def and_fn(p: int) -> BoolFunction:
    return BoolFunction(f"and:{p}", p, lambda bits: int(all(bits)), lambda z: z.all(axis=1))


def xor_fn(p: int) -> BoolFunction:
    return BoolFunction(f"xor:{p}", p, lambda bits: reduce(lambda a, b: a ^ b, bits, 0),
                        lambda z: z.sum(axis=1) % 2 == 1)


def eval_ne(bits: Sequence[int] | str) -> int:
    """Recursive not-all-equal function on 3^d bits (any other arity is
    rejected): one bit is itself; else split into three equal blocks,
    recurse, and output 1 iff the three sub-values are not all equal."""
    b = as_bits(bits)
    size = len(b)
    if size == 1:
        return b[0]
    if size % 3 != 0:
        raise InputError(f"arity {size} is not a power of 3")
    third = size // 3
    sub = (eval_ne(b[:third]), eval_ne(b[third : 2 * third]), eval_ne(b[2 * third :]))
    return int(not (sub[0] == sub[1] == sub[2]))


def ne_rows(z: np.ndarray) -> np.ndarray:
    """eval_ne on every row, bottom-up over consecutive triples."""
    while z.shape[1] > 1:
        t = z.reshape(len(z), -1, 3)
        z = t.any(axis=2) & ~t.all(axis=2)
    return z[:, 0] == 1


def ne_fn(p: int) -> BoolFunction:
    q = p
    while q > 1:
        if q % 3 != 0:
            raise InputError(f"arity {p} is not a power of 3")
        q //= 3
    return BoolFunction(f"ne:{p}", p, lambda bits: eval_ne(bits), ne_rows)


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

    @cached_property
    def flips(self) -> np.ndarray:
        """table() as a read-only uint8 array, built once per gadget:
        flips[c, v] = g(c, v), the cells an oracle pass flips."""
        flips = np.array(self.table(), dtype=np.uint8)
        flips.flags.writeable = False
        return flips


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

    kind is one of "lifted", "eq", "ints"; lifted carries the composed
    function. ints is set intersection (or over the 1-bit and gadget); eq is
    string equality of the two sides. value is the one-pair case of values.
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
        xv, yv = (np.array([as_bits(v, self.n)], dtype=np.uint8) for v in (x, y))
        return int(self.values(xv, yv)[0])

    def values(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Values of the pairs (xs[i], ys[i]) of two (rows x n) bit matrices
        as a bool array; lifted: on_rows of the gadget words."""
        if xs.shape != ys.shape or not (is_bit_matrix(xs, self.n) and is_bit_matrix(ys, self.n)):
            raise InputError(f"expected two (rows x {self.n}) bit matrices")
        if self.kind == "eq":
            return (xs == ys).all(axis=1)
        if self.kind == "ints":
            return (xs & ys).any(axis=1)
        f = self.composed
        return f.outer.on_rows(gadget_words(xs, ys, f.gadget.width, f.gadget.flips))


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
