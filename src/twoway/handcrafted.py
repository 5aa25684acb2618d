"""Hand-built two-way machines for the equality language x #^n y with x = y.

Two constructions: a deterministic single-sweep machine that memorizes x in
its state (exponential states, linear time), and a probabilistic fingerprint
machine that compares x and y modulo one uniformly random prime p ≤ n²
(polynomial states, linear time, one-sided error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress

from .automata import StateSpace, TwoWayDfa, TwoWayPfa
from .errors import InputError

_ONE = Fraction(1)      # the weight of every deterministic step, shared


def sieve_primes(limit: int) -> list[int]:
    """Primes ≤ limit by Eratosthenes, striking multiples by slice assignment."""
    if limit < 2:
        return []
    prime = bytearray([1]) * (limit + 1)
    prime[:2] = b"\0\0"
    for q in range(2, math.isqrt(limit) + 1):
        if prime[q]:
            prime[q * q::q] = bytes(len(range(q * q, limit + 1, q)))
    return list(compress(range(limit + 1), prime))


@dataclass(frozen=True)
class PrimeTable:
    n: int
    primes: tuple[int, ...]
    count: int

    @staticmethod
    @lru_cache(maxsize=8)   # the machine, the sweep and commlab read one n's table
    def for_side_length(n: int) -> "PrimeTable":
        if n < 1:
            raise InputError("side length must be ≥ 1")
        # n=1 has no primes ≤ n²; a single prime 2 still separates {0,1}
        cap = max(n * n, 2)
        primes = tuple(sieve_primes(cap))
        return PrimeTable(n, primes, len(primes))


def _halting_acc_rej(s):
    if s == "acc":
        return "accept"
    if s == "rej":
        return "reject"
    return None


def build_eq_dfa(n: int) -> TwoWayDfa:
    """Single left-to-right sweep: memorize x bit by bit, count the # block,
    compare y against the remembered x, confirm $. Runs in 3n+2 steps.

    A state holds the x prefix read so far as a str, which caches its hash:
    the step walker hashes every state it passes."""
    if n < 1:
        raise InputError("n must be ≥ 1")

    def step(s, sym):
        if s[0] == "rx":
            prefix = s[1]
            if sym == "¢":
                return (s, 1)
            if len(prefix) < n:
                if sym in "01":
                    return (("rx", prefix + sym), 1)
                return ("rej", 0)
            if sym == "#":
                return (("h", prefix, 1), 1)
            return ("rej", 0)
        if s[0] == "h":
            _, x, j = s
            if j < n:
                if sym == "#":
                    return (("h", x, j + 1), 1)
                return ("rej", 0)
            if sym in "01":
                if sym == x[0]:
                    return (("ry", x, 1), 1)
                return ("rej", 0)
            return ("rej", 0)
        if s[0] == "ry":
            _, x, j = s
            if j < n:
                if sym in "01":
                    if sym == x[j]:
                        return (("ry", x, j + 1), 1)
                    return ("rej", 0)
                return ("rej", 0)
            if sym == "$":
                return ("acc", 0)
            return ("rej", 0)
        return None

    declared = (2 ** (n + 1) - 1) + 2 * n * 2**n + 2
    space = StateSpace(
        ("rx", ""), _halting_acc_rej, declared, "2^(n+1)-1 + 2n*2^n + 2"
    )
    return TwoWayDfa(
        f"eq-dfa:{n}", space, step, circular=False,
        source={"generator": "eq-dfa", "n": n},
    )


def build_eq_pfa(n: int) -> TwoWayPfa:
    """Fingerprint machine. Deterministic form check sweeps ¢ to $, rewinds to
    the first #, then one uniformly random prime p is drawn in a single
    branching step. The branch re-reads x right-to-left accumulating
    a = x mod p (tracking 2^j mod p as it goes), returns to the right, reads
    y left-to-right as b = y mod p, and accepts at $ iff a = b.

    Bit strings are read as integers most-significant bit first. Runs in
    9n+4 steps on well-formed input; states are O(n^6)."""
    if n < 1:
        raise InputError("n must be ≥ 1")
    table = PrimeTable.for_side_length(n)
    primes = table.primes
    share = Fraction(1, table.count)

    def det(state, move):
        return ((_ONE, state, move),)

    def step(s, sym):
        tag = s[0]
        if tag == "f":
            _, seg, j = s
            if seg == "x":
                if sym == "¢":
                    return det(s, 1)
                if j < n:
                    return det(("f", "x", j + 1), 1) if sym in "01" else det("rej", 0)
                return det(("f", "h", 1), 1) if sym == "#" else det("rej", 0)
            if seg == "h":
                if j < n:
                    return det(("f", "h", j + 1), 1) if sym == "#" else det("rej", 0)
                return det(("f", "y", 1), 1) if sym in "01" else det("rej", 0)
            if j < n:
                return det(("f", "y", j + 1), 1) if sym in "01" else det("rej", 0)
            return det(("rw", 1), -1) if sym == "$" else det("rej", 0)
        if tag == "rw":
            j = s[1]
            if j < 2 * n:
                return det(("rw", j + 1), -1)
            # head sits on the first #: consume all randomness in one step
            return tuple((share, ("b", p, 1, 0), -1) for p in primes)
        if tag == "b":
            _, p, pow2, a = s
            if sym == "¢":
                return det(("w", p, a), 1)
            v = 1 if sym == "1" else 0
            return det(("b", p, (2 * pow2) % p, (a + v * pow2) % p), -1)
        if tag == "w":
            _, p, a = s
            if sym == "#":
                return det(("s", p, a), 1)
            return det(s, 1)
        if tag == "s":
            _, p, a = s
            if sym == "#":
                return det(s, 1)
            return det(("r", p, a, (1 if sym == "1" else 0) % p), 1)
        if tag == "r":
            _, p, a, b = s
            if sym == "$":
                return det("acc" if a == b else "rej", 0)
            v = 1 if sym == "1" else 0
            return det(("r", p, a, (2 * b + v) % p), 1)
        return None

    prime_states = sum(2 * p * p + 2 * p for p in primes)
    declared = (3 * n + 1) + 2 * n + prime_states + 2
    space = StateSpace(
        ("f", "x", 0),
        _halting_acc_rej,
        declared,
        "3n+1 + 2n + sum_{p<=max(n^2,2)}(2p^2+2p) + 2",
    )
    return TwoWayPfa(
        f"eq-pfa:{n}", space, step, circular=False,
        source={"generator": "eq-pfa", "n": n},
    )


def eq_pfa_exact_prob(n: int, x: str, y: str) -> Fraction:
    """|{p prime ≤ n² : x ≡ y mod p}| / π(n²), the machine's exact acceptance
    probability, computed independently by direct prime enumeration."""
    if len(x) != n or len(y) != n:
        raise InputError(f"need |x| = |y| = {n}")
    if set(x) - {"0", "1"} or set(y) - {"0", "1"}:
        raise InputError("x and y must be bit strings")
    table = PrimeTable.for_side_length(n)
    xv = int(x, 2)
    yv = int(y, 2)
    bad = sum(1 for p in table.primes if xv % p == yv % p)
    return Fraction(bad, table.count)


def eq_pfa_time(n: int) -> int:
    """Step count of the fingerprint machine on any well-formed input."""
    return 9 * n + 4


def eq_dfa_time(n: int) -> int:
    """Step count of the sweep machine on members (worst case over all inputs)."""
    return 3 * n + 2
