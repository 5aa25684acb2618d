"""Parameter sweeps, CSV emission, and scaling-exponent fits.

A sweep row records the worst-case time, declared and visited space, and
worst-case error of one machine family at one side length n. Families run
exhaustively over all (x, y) pairs while 2^(2n) <= 2^16 and over seeded
member/non-member samples beyond that.

Every family's row reaches one accumulator, _Accum.add_lanes, as bit
matrices of pairs in input order with each run's probability, time, census
and crossings. It checks every run against the protocol-extraction
certificate (crossings * n <= T and transferred bits <= S * floor(T/n) + 1)
with array operations; a failing run goes through certificate_check, so the
first failing pair raises its own error. The worst input of a class is the
first pair whose error exceeds the running maximum, so a row added in
chunks equals the row added at once.

A compiled family's row (grover-ints, exact-parity-lifted) runs every pair
through one run_compiled_lanes call.

The equality sweep machine's exhaustive rows walk every pair of the row in
lockstep (lockstep.run_dfa_lanes): the machine's transitions are tabulated
the first time a pair of the row needs them. A lane the walk hands back (a
failing transition, a bad head position, a long run) is replayed through
run_dfa on the row's regions before the lanes after it are added, so the
row raises the error the first failing pair raises on its own. Its sampled
rows, whose states seldom repeat, take that per-run path for every pair.

The equality fingerprint family uses a vectorized evaluator (residues and
per-prime branch walks computed with numpy) that reproduces the machine's
acceptance probability, step count, and visited-state census exactly; the
agreement is pinned against the step-level runner at small n in the test
suite. Per-row visited counts are the maximum census over the evaluated
inputs of that row.

Most primes need no walk for the x part of that census. Before bit i of
the right-to-left x read a branch holds (2^i mod p, a_i), and for odd p the
powers 2^0..2^n mod p are pairwise distinct exactly when 2 has
multiplicative order greater than n mod p, so such a branch visits n+1
distinct states whatever x is. Only the remaining primes are walked and
sorted (206 of the 6542 primes up to 256^2).
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .automata import DEFAULT_CUTOFF, PAYLOAD_SYMBOLS, run_dfa
from .boolfn import HASH, LanguageSpec, bit_string, eq_language, ints_language, lifted_language, ComposedFunction, and_gadget, xor_fn
from .commlab import _regions, machine_space
from .compiler import compile_query_to_qcfa, run_compiled_lanes
from .compiler import run_compiled  # noqa: F401  (the benchmark's tracer hooks this name)
from .errors import InputError, SpecError
from .handcrafted import PrimeTable, build_eq_dfa, eq_pfa_time
from .lockstep import LaneRuns, distinct_per_row, run_dfa_lanes
from .qquery import exact_parity, grover_or

_owner_walk = None  # a name the benchmark's tracer hooks; the step walker hands off itself

__all__ = [
    "SweepRow",
    "FitResult",
    "FAMILIES",
    "sweep_ts",
    "fit_scaling",
    "write_rows",
    "read_rows",
    "certificate_check",
]

EXHAUSTIVE_LIMIT = 1 << 16      # exhaustive when 2^(2n) <= this
CSV_COLUMNS = (
    "family", "n", "T", "S_declared", "S_visited", "TS",
    "member_err", "nonmember_err",
)


@dataclass
class SweepRow:
    family: str
    n: int
    t_max: int
    s_declared: float
    s_visited: float
    ts: float
    member_err: float
    nonmember_err: float
    wall_seconds: float = field(default=0.0, compare=False)
    worst_member: str = field(default="", compare=False)
    worst_nonmember: str = field(default="", compare=False)


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float
    log_correction: str
    rows_used: int


def certificate_check(space: float, t_run: int, crossings: int, n: int) -> int:
    """Per-run protocol certificate; returns the transcript bit count."""
    bits = crossings * math.ceil(space) + 1
    if crossings * n > t_run:
        raise SpecError(
            f"certificate violated: {crossings} crossings * n={n} exceeds T={t_run}"
        )
    if bits > space * (t_run // n) + 1:
        raise SpecError(
            f"certificate violated: {bits} transcript bits exceed "
            f"S*floor(T/n)+1 = {space * (t_run // n) + 1:.3f}"
        )
    return bits


def _pair_bits(lang: LanguageSpec, n: int, samples: int, seed):
    """A row's pairs as (xs, ys, xi, yi): each side's words once, as bit
    matrices, and pair i is (xs[xi[i]], ys[yi[i]]).

    An exhaustive row (2^(2n) <= EXHAUSTIVE_LIMIT) pairs every n-bit word
    with every one, x major. Beyond that the row is seeded samples split
    evenly between members and non-members, pair i being sample i.
    Sampling is constructive, not rejection based: a random pair is almost
    never an equality member (or an intersection non-member) once n is
    large, so each class is built directly and then checked."""
    if 1 << (2 * n) <= EXHAUSTIVE_LIMIT:
        # narrow indices: a row's 4^n pair indices live as long as its run
        values = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
        words = ((values[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
        return words, words, values.repeat(1 << n), np.tile(values, 1 << n)
    rng = random.Random(f"{seed}:{lang.name}:{n}")
    pairs = []
    for want in (1, 0):
        for _ in range(samples):
            x, y = _sample_pair(lang, n, rng, want)
            if lang.value(x, y) != want:
                raise SpecError(f"sampler produced the wrong class for {lang.name}")
            pairs.append((x, y))
    sides = np.array(pairs, dtype=np.uint8).reshape(-1, 2, n)
    index = np.arange(len(pairs))
    return sides[:, 0], sides[:, 1], index, index


def _sample_pair(lang: LanguageSpec, n: int, rng, want: int):
    """One seeded (x, y) pair of bit lists with lang.value(x, y) == want."""
    xb = [rng.randrange(2) for _ in range(n)]
    yb = [rng.randrange(2) for _ in range(n)]
    if lang.kind == "eq":
        if want:
            return xb, xb
        if xb == yb:
            yb[rng.randrange(n)] ^= 1
    elif lang.kind == "ints":
        if want:
            i = rng.randrange(n)
            xb[i] = yb[i] = 1
        else:
            yb = [0 if a else b for a, b in zip(xb, yb)]
    else:
        # lifted f∘gadget: adjust one coordinate until the target value holds
        if not any(xb):
            xb[rng.randrange(n)] = 1
        if lang.value(xb, yb) != want:
            i = next(i for i, b in enumerate(xb) if b)
            yb[i] ^= 1
    return xb, yb


@dataclass
class _Accum:
    """Worst-case accumulators shared by every family evaluator."""

    space: float
    qubits: float = 0.0            # the evaluated machine's register size
    t_max: int = 0
    visited_max: int = 0
    member_err: float = 0.0
    nonmember_err: float = 0.0
    worst_member: str = ""
    worst_nonmember: str = ""
    evaluated: int = 0

    def add_lanes(self, x: np.ndarray, y: np.ndarray, member: np.ndarray,
                  prob: np.ndarray, t_run: np.ndarray, visited: np.ndarray,
                  crossings: np.ndarray) -> None:
        """Add the runs on pairs given as bit-matrix rows in row order.

        Certificates are screened as arrays, and the failing runs go through
        certificate_check in input order, so the first raises its own error.
        The worst input of a class is its first pair whose error exceeds the
        running maximum, across calls as within one."""
        if not len(prob):
            return
        n = x.shape[1]
        bits = crossings * math.ceil(self.space) + 1
        failing = (crossings * n > t_run) | (bits > self.space * (t_run // n) + 1)
        for i in np.flatnonzero(failing).tolist():
            certificate_check(self.space, int(t_run[i]), int(crossings[i]), n)
        self.evaluated += len(prob)
        self.t_max = max(self.t_max, int(t_run.max()))
        self.visited_max = max(self.visited_max, int(visited.max()))
        member_err = np.where(member, 1.0 - prob, 0.0)
        i = int(member_err.argmax())        # argmax: the first maximum
        if member_err[i] > self.member_err:
            self.member_err = float(member_err[i])
            self.worst_member = f"{bit_string(x[i])}|{bit_string(y[i])}"
        nonmember_err = np.where(member, 0.0, prob)
        i = int(nonmember_err.argmax())
        if nonmember_err[i] > self.nonmember_err:
            self.nonmember_err = float(nonmember_err[i])
            self.worst_nonmember = f"{bit_string(x[i])}|{bit_string(y[i])}"


# --- family evaluators ---------------------------------------------------------


def _eval_eq_dfa(n: int, samples: int, seed) -> _Accum:
    machine = build_eq_dfa(n)
    acc = _Accum(machine_space(machine))
    xs, ys, xi, yi = _pair_bits(eq_language(n), n, samples, seed)
    # A row whose side words are fewer than its pairs (an exhaustive row)
    # shares prefixes between pairs, so its lanes pass through the same
    # states and each table entry serves many of them. A sampled row's
    # states carry its random x and almost never repeat: its pairs run
    # faster one by one (the n=64 and 256 rows, 24 pairs each: 0.09 s pair
    # by pair, 0.16 s in lockstep, on a 2-vCPU x86 VM).
    _add_dfa_pairs(acc, machine, xs[xi], ys[yi], _regions(n), lockstep=len(xs) < len(xi))
    return acc


def _add_dfa_pairs(acc: _Accum, machine, x: np.ndarray, y: np.ndarray, regions,
                   cutoff: int = DEFAULT_CUTOFF, lockstep: bool = True) -> None:
    """Add the runs of a 2DFA on the equality pairs x_i #^n y_i (bit-matrix
    rows in row order) to acc, through acc.add_lanes like every
    family's runs.

    With `lockstep`, every pair walks in lockstep (run_dfa_lanes); without
    it, every pair is handed back. A lane handed back goes through the
    per-run path (run_dfa on `regions`, its hand-offs the crossings) before
    the lanes from it on are added, so the first pair that the per-run path
    or its certificate fails on raises its error, with its message."""
    n = x.shape[1]
    if lockstep:
        payloads = np.empty((x.shape[0], 3 * n), dtype=np.uint8)
        payloads[:, :n] = x
        payloads[:, n:2 * n] = PAYLOAD_SYMBOLS.index(HASH)
        payloads[:, 2 * n:] = y
        runs = run_dfa_lanes(machine, payloads, regions, cutoff)
        del payloads
    else:
        runs = LaneRuns.zeros(x.shape[0])
        runs.replay[:] = True
    member = (x == y).all(axis=1)

    def add(lanes: slice) -> None:
        acc.add_lanes(x[lanes], y[lanes], member[lanes], runs.accepted[lanes],
                      runs.steps[lanes], runs.visited[lanes], runs.crossings[lanes])

    start = 0
    for i in np.flatnonzero(runs.replay).tolist():
        add(slice(start, i))
        trace = run_dfa(machine, bit_string(x[i]) + HASH * n + bit_string(y[i]),
                        cutoff, regions)
        runs.crossings[i] = len(trace.handoffs)
        runs.accepted[i], runs.steps[i], runs.visited[i] = (
            trace.accepted_bit, trace.steps, trace.visited)
        start = i
    add(slice(start, None))


class _EqPfaFast:
    """Vectorized fingerprint-machine evaluator.

    Mirrors the machine exactly on well-formed input: acceptance probability
    is the fraction of primes with x = y mod p; T = 9n+4 on every branch;
    the visited census decomposes into shared form/rewind states, two
    walk states per prime, the distinct (power, accumulator) pairs of the
    x re-read (a function of x alone), and the distinct running residues of
    the y comparison (a function of y alone).

    The x re-read of prime p holds (2^i mod p, a_i) before bit i. When the
    powers 2^0..2^n mod p are pairwise distinct, its n+1 states are too.
    For odd p that holds unless 2^k = 1 mod p for some 1 <= k <= n (the
    multiplicative order of 2 is at most n); for p = 2 the powers repeat 0
    from n = 2 on. Only these "short" primes are walked and sorted; every
    other prime adds exactly n+1 states.
    """

    def __init__(self, n: int):
        self.n = n
        table = PrimeTable.for_side_length(n)
        self.prime_list = table.primes
        self.primes = np.array(table.primes, dtype=np.int64)
        self.count = table.count
        self.t_run = eq_pfa_time(n)
        self.shared = (3 * n + 1) + 2 * n + 2 * table.count
        power = np.ones_like(self.primes)
        short = self.primes == 2
        for _ in range(n):
            power = 2 * power % self.primes
            short |= power == 1
        self.short_primes = self.primes[short]
        self.long_states = (n + 1) * (self.count - self.short_primes.size)
        # residues fit the narrowest unsigned type holding the largest prime;
        # the running value 2b + bit < 2p is reduced in one that holds 2p
        top = int(self.primes.max())
        self.residue_dtype = np.min_scalar_type(top)
        self.reduce_primes = self.primes.astype(np.min_scalar_type(2 * top))

    def residues(self, s: str) -> np.ndarray:
        v = int(s, 2)
        return np.array([v % p for p in self.prime_list], dtype=np.int64)

    def b_census(self, x: str) -> int:
        """Distinct ("b", p, pow, a) states over the right-to-left x read,
        including the state at the left end marker (it originates the hop
        into the walk state, so the census counts it)."""
        p = self.short_primes
        pw = np.ones_like(p)
        a = np.zeros_like(p)
        codes = np.empty((self.n + 1, p.shape[0]), dtype=np.int64)
        for i, ch in enumerate(reversed(x)):
            codes[i] = pw * p + a       # state before consuming bit i
            if ch == "1":
                a = (a + pw) % p
            pw = (2 * pw) % p
        codes[self.n] = pw * p + a
        return self.long_states + int(distinct_per_row(codes.T).sum())

    def r_census(self, y: str) -> int:
        """Distinct ("r", p, a, b) states over the left-to-right y read; a is
        fixed per branch so only the running residue b varies. Blocks of 32
        steps are written into a (primes x n) array, which is sorted in place."""
        p = self.reduce_primes
        b = np.zeros_like(p)
        wrapped = np.empty_like(p)
        codes = np.empty((p.shape[0], self.n), dtype=self.residue_dtype)
        block = np.empty((32, p.shape[0]), dtype=self.residue_dtype)
        for start in range(0, self.n, 32):
            bits = y[start:start + 32]
            for i, ch in enumerate(bits):
                b <<= 1
                if ch == "1":
                    b += 1
                # 2b + bit < 2p: one subtraction reduces; below p it wraps past b
                np.subtract(b, p, out=wrapped)
                np.minimum(b, wrapped, out=b)
                block[i] = b            # state after consuming bit start + i
            codes[:, start:start + len(bits)] = block[:len(bits)].T
        return int(distinct_per_row(codes).sum())

    def census(self, x: str, y: str) -> int:
        return self.shared + self.b_census(x) + self.r_census(y)

    def prob(self, x: str, y: str) -> float:
        return float(np.count_nonzero(self.residues(x) == self.residues(y))) / self.count


def _eval_eq_pfa(n: int, samples: int, seed) -> _Accum:
    from .handcrafted import build_eq_pfa
    acc = _Accum(machine_space(build_eq_pfa(n)))
    fast = _EqPfaFast(n)
    xs, ys, xi, yi = _pair_bits(eq_language(n), n, samples, seed)
    # census parts and residues once per side word, gathered per pair (the
    # census splits into an x and a y part); the residues are made after the
    # census, so that they are not held through its large temporaries
    x_words, y_words = [bit_string(w) for w in xs], [bit_string(w) for w in ys]
    visited = (fast.shared + np.array([fast.b_census(w) for w in x_words])[xi]
               + np.array([fast.r_census(w) for w in y_words])[yi])
    rx, ry = (np.array([fast.residues(w) for w in words], dtype=fast.residue_dtype)
              for words in (x_words, y_words))
    prob = (rx[xi] == ry[yi]).sum(axis=1) / fast.count
    x, y = xs[xi], ys[yi]
    acc.add_lanes(x, y, (x == y).all(axis=1), prob, np.broadcast_to(fast.t_run, prob.shape),
                  visited, np.broadcast_to(3, prob.shape))
    return acc


def _eval_compiled(alg_builder, n: int, samples: int, seed, lang, member) -> _Accum:
    """Every pair of the row through one run_compiled_lanes call; member(x, y)
    is the language value of every pair of the bit matrices."""
    rep = compile_query_to_qcfa(alg_builder(n), and_gadget(), n)
    acc = _Accum(machine_space(rep.machine), rep.machine.qubits)
    xs, ys, xi, yi = _pair_bits(lang, n, samples, seed)
    x, y = xs[xi], ys[yi]
    runs = run_compiled_lanes(rep, x, y)
    steps, visited, crossings = (np.array([getattr(r, f) for r in runs], dtype=np.int64)
                                 for f in ("t_max", "visited", "crossings_max"))
    prob = np.array([float(r.accept_probability) for r in runs])
    acc.add_lanes(x, y, member(x, y), prob, steps, visited, crossings)
    return acc


def _eval_grover_ints(n: int, samples: int, seed) -> _Accum:
    return _eval_compiled(grover_or, n, samples, seed, ints_language(n),
                          lambda x, y: (x & y).any(axis=1))


def _eval_parity_lifted(n: int, samples: int, seed) -> _Accum:
    if n % 2:
        raise InputError("exact-parity-lifted needs even n")
    lang = lifted_language(ComposedFunction(xor_fn(n), and_gadget()))
    return _eval_compiled(exact_parity, n, samples, seed, lang,
                          lambda x, y: (x & y).sum(axis=1) % 2 == 1)


FAMILIES = {
    "eq-dfa": _eval_eq_dfa,
    "eq-pfa": _eval_eq_pfa,
    "grover-ints": _eval_grover_ints,
    "exact-parity-lifted": _eval_parity_lifted,
}


def sweep_ts(family: str, n_values, samples_per_n: int = 12, seed=0) -> list:
    """Evaluate one machine family across side lengths; rows sorted by n."""
    evaluator = FAMILIES.get(family)
    if evaluator is None:
        raise InputError(
            f"unknown family {family!r}; known: {', '.join(sorted(FAMILIES))}"
        )
    if samples_per_n < 1:
        raise InputError(f"samples per n must be >= 1, got {samples_per_n}")
    rows = []
    for n in sorted(n_values):
        started = time.perf_counter()
        try:
            acc = evaluator(n, samples_per_n, seed)
        except Exception as exc:
            raise type(exc)(f"{family} at n={n}: {exc}") from exc
        machine_s = acc.space
        s_visited = acc.qubits + math.log2(max(1, acc.visited_max))
        row = SweepRow(
            family=family,
            n=n,
            t_max=acc.t_max,
            s_declared=machine_s,
            s_visited=s_visited,
            ts=acc.t_max * machine_s,
            member_err=acc.member_err,
            nonmember_err=acc.nonmember_err,
            wall_seconds=time.perf_counter() - started,
            worst_member=acc.worst_member,
            worst_nonmember=acc.worst_nonmember,
        )
        if row.s_visited > row.s_declared + 1e-9:
            raise SpecError(
                f"{family} n={n}: visited census exceeds the declared bound"
            )
        rows.append(row)
    return rows


def fit_scaling(rows, log_correction: str = "none") -> FitResult:
    """Least-squares slope of log TS (optionally log(TS / log n)) vs log n."""
    if log_correction not in ("none", "divide-by-log-n"):
        raise InputError(f"unknown log correction {log_correction!r}")
    if len(rows) < 4:
        raise InputError("scaling fit needs at least 4 rows")
    ns = np.array([r.n for r in rows], dtype=float)
    if ns.max() / ns.min() < 8:
        raise InputError("scaling fit needs n to span at least a factor of 8")
    ts = np.array([r.ts for r in rows], dtype=float)
    if log_correction == "divide-by-log-n":
        ts = ts / np.log2(ns)
    lx = np.log(ns)
    ly = np.log(ts)
    (slope, intercept), res, *_ = np.polyfit(lx, ly, 1, full=True)
    residual = float(np.sqrt(res[0] / len(rows))) if res.size else 0.0
    return FitResult(float(slope), float(intercept), residual,
                     log_correction, len(rows))


# --- CSV ------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return format(v, ".9g")


def write_rows(rows, path) -> None:
    """Byte-stable CSV (fixed column set; wall time and achieving inputs go
    to a JSON sidecar, keeping identical sweeps byte-identical)."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(CSV_COLUMNS)
        for r in rows:
            w.writerow([
                r.family, r.n, r.t_max, _fmt(r.s_declared), _fmt(r.s_visited),
                _fmt(r.ts), _fmt(r.member_err), _fmt(r.nonmember_err),
            ])
    sidecar = [
        {
            "family": r.family, "n": r.n,
            "wall_seconds": r.wall_seconds,
            "worst_member": r.worst_member,
            "worst_nonmember": r.worst_nonmember,
        }
        for r in rows
    ]
    path.with_suffix(path.suffix + ".meta.json").write_text(
        json.dumps(sidecar, indent=2) + "\n"
    )


def read_rows(path) -> list:
    rows = []
    with Path(path).open() as fh:
        for rec in csv.DictReader(fh):
            rows.append(SweepRow(
                family=rec["family"],
                n=int(rec["n"]),
                t_max=int(rec["T"]),
                s_declared=float(rec["S_declared"]),
                s_visited=float(rec["S_visited"]),
                ts=float(rec["TS"]),
                member_err=float(rec["member_err"]),
                nonmember_err=float(rec["nonmember_err"]),
            ))
    return rows
