"""Communication-protocol side of the workbench.

A two-way machine over x #^n y words induces a two-party protocol: Alice owns
the tape region holding ¢ x #^n, Bob the region holding #^n y $ (the padding
block is shared). Whoever owns the head simulates until it leaves their
region, then ships the full configuration across. Each transfer costs the
machine's space in bits, and one final bit announces the outcome.

Also here: the protocol induced by a decision tree plus a per-block gadget
exchange, an exact brute-force evaluation of deterministic communication
complexity on tiny matrices, and the random-prime fingerprint protocol for
equality.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

from .automata import run_dfa, run_pfa_sample, qcfa_sample
from .boolfn import HASH, Gadget, as_bits
from .errors import InputError, RefusalError
from .handcrafted import PrimeTable
from .qquery import DecisionTree

__all__ = [
    "ProtocolMessage",
    "ProtocolTranscript",
    "FunctionMatrix",
    "extract_protocol",
    "GadgetProtocol",
    "block_exchange_protocol",
    "composed_protocol_cost",
    "bruteforce_dcc",
    "fingerprint_protocol",
]

ALICE = "Alice"
BOB = "Bob"


@dataclass(frozen=True)
class ProtocolMessage:
    sender: str
    bits: int
    kind: str = "state"        # state transfer | output announcement
    note: str = ""


@dataclass
class ProtocolTranscript:
    messages: list
    output: int

    @property
    def total_bits(self) -> int:
        return sum(m.bits for m in self.messages)

    @property
    def crossings(self) -> int:
        return sum(1 for m in self.messages if m.kind == "state")


def machine_space(machine) -> float:
    """Space in bits: log2 of the declared state bound, plus qubits."""
    return machine.qubits + math.log2(machine.states.declared_bound)


def _regions(n: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The head positions each party owns on ¢ x #^n y $: Alice ¢ x #^n,
    Bob #^n y $ (the padding block is shared)."""
    return ((0, 2 * n), (n + 1, 3 * n + 1))


def extract_protocol(machine, x: str, y: str, seed=0) -> ProtocolTranscript:
    """Partitioned simulation of one (seeded) run on x #^n y.

    Deterministic machines replay their single run; probabilistic and quantum
    machines replay one seeded trajectory, so a shared seed reproduces the
    same outcome on both the monolithic and the partitioned side. Each
    boundary crossing sends the current configuration, ceil(space) bits; the
    final owner announces the outcome with one more bit.
    """
    n = len(x)
    if len(y) != n or n < 1:
        raise InputError("protocol extraction needs |x| = |y| >= 1")
    payload = x + HASH * n + y
    regions = _regions(n)
    if machine.kind == "2dfa":
        trace = run_dfa(machine, payload, regions=regions)
    elif machine.kind == "2pfa":
        trace = run_pfa_sample(machine, payload, seed=seed, regions=regions)
    else:
        trace = qcfa_sample(machine, payload, seed=seed, regions=regions)
    per_message = math.ceil(machine_space(machine))
    names = (ALICE, BOB)
    messages = [ProtocolMessage(names[old], per_message, "state", f"hand-off at step {i}")
                for i, old in trace.handoffs]
    final_owner = len(trace.handoffs) & 1    # each hand-off flips the owner
    output = 1 if trace.outcome == "accept" else 0
    messages.append(ProtocolMessage(names[final_owner], 1, "output"))
    return ProtocolTranscript(messages, output)


# --- decision tree x gadget protocol -----------------------------------------


@dataclass(frozen=True)
class GadgetProtocol:
    """A fixed-cost exchange that evaluates one gadget block."""

    gadget: Gadget
    cost_bits: int

    def run(self, x_block, y_block) -> int:
        return self.gadget(x_block, y_block)


def block_exchange_protocol(gadget: Gadget) -> GadgetProtocol:
    """Alice ships her whole m-bit block, Bob answers with the gadget value."""
    return GadgetProtocol(gadget, gadget.width + 1)


def composed_protocol_cost(
    tree: DecisionTree, gp: GadgetProtocol, x, y
) -> tuple[int, int]:
    """Evaluate h∘g by walking h's decision tree, paying one gadget exchange
    per queried block. Returns (output, total bits); bits ≤ depth * cost."""
    m = gp.gadget.width
    xv = as_bits(x)
    yv = as_bits(y)
    if len(xv) != len(yv):
        raise InputError("sides must have equal length")
    blocks = len(xv) // m
    if blocks * m != len(xv):
        raise InputError(f"side length {len(xv)} is not a multiple of width {m}")

    def exchange(block: int) -> int:
        if block >= blocks:
            raise InputError(f"tree queries block {block}, input has {blocks} blocks")
        lo = block * m
        return gp.run(xv[lo : lo + m], yv[lo : lo + m])

    value, queries = tree.eval_with_queries(exchange)
    return value, queries * gp.cost_bits


# --- exact deterministic communication complexity ----------------------------


@dataclass(frozen=True)
class FunctionMatrix:
    """Dense 0/1 matrix of a two-party function, 2^a rows x 2^b columns."""

    values: tuple          # tuple of row tuples

    def __post_init__(self):
        rows = len(self.values)
        if rows == 0 or rows & (rows - 1):
            raise InputError("row count must be a power of two")
        cols = len(self.values[0])
        if cols == 0 or cols & (cols - 1):
            raise InputError("column count must be a power of two")
        for row in self.values:
            if len(row) != cols:
                raise InputError("ragged matrix")
            if any(v not in (0, 1) for v in row):
                raise InputError("matrix entries must be 0 or 1")

    @property
    def rows(self) -> int:
        return len(self.values)

    @property
    def cols(self) -> int:
        return len(self.values[0])

    @property
    def input_bits(self) -> int:
        return (self.rows - 1).bit_length() + (self.cols - 1).bit_length()

    @staticmethod
    def load(path) -> "FunctionMatrix":
        lines = [
            ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()
        ]
        return FunctionMatrix(tuple(
            tuple(int(c) for c in ln.replace(" ", "")) for ln in lines
        ))


def eq_matrix(n: int) -> FunctionMatrix:
    size = 1 << n
    return FunctionMatrix(tuple(
        tuple(int(r == c) for c in range(size)) for r in range(size)
    ))


def bruteforce_dcc(matrix: FunctionMatrix, limit: int = 6) -> int:
    """Exact deterministic communication complexity by exhaustive search over
    protocol trees. A node is one player's bipartition of its surviving input
    set (one bit); leaves must be monochromatic, so both players finish
    knowing the value.
    """
    if matrix.input_bits > limit:
        raise RefusalError(
            f"{matrix.input_bits} input bits exceed the exhaustive-search "
            f"limit of {limit}"
        )
    vals = matrix.values
    full_rows = (1 << matrix.rows) - 1
    full_cols = (1 << matrix.cols) - 1
    memo: dict = {}

    def mono(rmask: int, cmask: int) -> bool:
        first = None
        r = 0
        rm = rmask
        while rm:
            if rm & 1:
                cm = cmask
                c = 0
                while cm:
                    if cm & 1:
                        v = vals[r][c]
                        if first is None:
                            first = v
                        elif v != first:
                            return False
                    cm >>= 1
                    c += 1
            rm >>= 1
            r += 1
        return True

    def cost(rmask: int, cmask: int) -> int:
        key = (rmask, cmask)
        got = memo.get(key)
        if got is not None:
            return got
        if mono(rmask, cmask):
            memo[key] = 0
            return 0
        best = matrix.input_bits   # sending everything always suffices
        low_r = rmask & -rmask
        sub = (rmask - 1) & rmask
        while sub:
            if sub & low_r:        # fix the lowest row in part one: unordered split
                other = rmask ^ sub
                c = 1 + max(cost(sub, cmask), cost(other, cmask))
                if c < best:
                    best = c
            sub = (sub - 1) & rmask
        low_c = cmask & -cmask
        sub = (cmask - 1) & cmask
        while sub:
            if sub & low_c:
                other = cmask ^ sub
                c = 1 + max(cost(rmask, sub), cost(rmask, other))
                if c < best:
                    best = c
            sub = (sub - 1) & cmask
        memo[key] = best
        return best

    return cost(full_rows, full_cols)


# --- fingerprint protocol -----------------------------------------------------


def fingerprint_protocol(x: str, y: str, seed=0) -> ProtocolTranscript:
    """Random-prime equality check: Alice draws a prime p <= n^2 and sends
    (p, x mod p); Bob announces whether y matches modulo p."""
    n = len(x)
    if len(y) != n or n < 1:
        raise InputError("fingerprint needs |x| = |y| >= 1")
    table = PrimeTable.for_side_length(n)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    p = table.primes[rng.randrange(len(table.primes))]
    field_bits = max(1, math.ceil(math.log2(max(n * n, 2))))
    a = int(x, 2) % p
    b = int(y, 2) % p
    output = int(a == b)
    messages = [
        ProtocolMessage(ALICE, 2 * field_bits, "state", f"p={p}, residue={a}"),
        ProtocolMessage(BOB, 1, "output"),
    ]
    return ProtocolTranscript(messages, output)
