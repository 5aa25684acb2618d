"""Parameter sweeps, CSV emission, and scaling-exponent fits.

A sweep row records the worst-case time, declared and visited space, and
worst-case error of one machine family at one side length n. Families run
exhaustively over all (x, y) pairs while 2^(2n) <= 2^16 and over seeded
member/non-member samples beyond that.

Every family's evaluator returns its row's runs as arrays in input order:
the pairs as x and y bit matrices, and each pair's membership, acceptance
probability, time, census and crossings, with the machine that ran them;
membership is LanguageSpec.values of the row's language. One function,
_row, makes the row of them. It checks every run against the
protocol-extraction certificate (crossings * n <= T and transferred bits <=
S * floor(T/n) + 1) in one certificate_check call, which raises the first
failing run's error, and names the first pair of largest positive error as
the worst input of its class.

A compiled family's row (grover-ints, exact-parity-lifted) runs every pair
through one run_compiled_lanes call.

The equality sweep machine's exhaustive rows walk every pair of the row in
lockstep (lockstep.run_dfa_lanes): the machine's transitions are tabulated
the first time a pair of the row needs them. If the walk hands a lane back
(a failing transition, a bad head position, a long run), every pair of the
row goes through run_dfa on the row's regions instead, its certificate
checked as its run ends, so the row raises the error the first failing pair
raises on its own. Its sampled rows, whose states seldom repeat, take that
per-run path from the start.

The equality fingerprint family uses a vectorized evaluator (_EqPfaFast)
that reproduces the machine's acceptance probability, step count, and
visited-state census exactly; the agreement is pinned against the
step-level runner at small n in the test suite. Per-row visited counts are
the maximum census over the evaluated inputs of that row. Each side's
census part is one walk over blocks of the row's words, as many as fit
CENSUS_CELLS codes (the whole row at n=8, 7 words at n=64, one at n=256);
the y walk ends on the y residues, and only x words that differ from
their y word need residues of their own. Most primes need no walk for the
x part (_EqPfaFast).
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from pathlib import Path

import numpy as np

from .automata import DEFAULT_CUTOFF, PAYLOAD_SYMBOLS, run_dfa
from .boolfn import HASH, LanguageSpec, bit_string, eq_language, ints_language, lifted_language, ComposedFunction, and_gadget, xor_fn
from .commlab import _regions, machine_space
from .compiler import compile_query_to_qcfa, run_compiled_lanes
from .compiler import run_compiled  # noqa: F401  (the benchmark's tracer hooks this name)
from .errors import InputError, SpecError
from .handcrafted import PrimeTable, build_eq_dfa, eq_pfa_time
from .lockstep import LaneRuns, run_dfa_lanes
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
CENSUS_CELLS = 1 << 18          # sorted census codes of one eq-pfa block of words
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


def certificate_check(space: float, t_run, crossings, n: int):
    """Protocol certificate of one run, or of arrays of runs in input order:
    crossings * n <= T and transcript bits <= S * floor(T/n) + 1. Returns
    the transcript bit count(s); the first failing run raises its error."""
    bits = crossings * math.ceil(space) + 1
    failing = np.flatnonzero((crossings * n > t_run) | (bits > space * (t_run // n) + 1))
    if failing.size:
        i = failing[0]
        t_run, crossings = int(np.ravel(t_run)[i]), int(np.ravel(crossings)[i])
        if crossings * n > t_run:
            raise SpecError(
                f"certificate violated: {crossings} crossings * n={n} exceeds T={t_run}"
            )
        raise SpecError(
            f"certificate violated: {crossings * math.ceil(space) + 1} transcript bits "
            f"exceed S*floor(T/n)+1 = {space * (t_run // n) + 1:.3f}"
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
    large, so each class is built directly (a lifted sample of the wrong
    class flips y at x's first 1, after every draw) and then checked."""
    if 1 << (2 * n) <= EXHAUSTIVE_LIMIT:
        # narrow indices: a row's 4^n pair indices live as long as its run
        values = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
        words = ((values[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
        return words, words, values.repeat(1 << n), np.tile(values, 1 << n)
    rng = random.Random(f"{seed}:{lang.name}:{n}")
    index = np.arange(2 * samples)
    want = index < samples
    sides = np.array([_sample_pair(lang, n, rng, w) for w in want.tolist()], dtype=np.uint8)
    xs, ys = sides[:, 0], sides[:, 1]
    if lang.kind == "lifted":
        wrong = np.flatnonzero(lang.values(xs, ys) != want)
        ys[wrong, xs[wrong].argmax(axis=1)] ^= 1
    if (lang.values(xs, ys) != want).any():
        raise SpecError(f"sampler produced the wrong class for {lang.name}")
    return xs, ys, index, index


def _random_bits(rng: random.Random, n: int) -> list:
    """n bits drawn as [rng.randrange(2) for _ in range(n)] draws them, from
    the same stream: randrange(2) takes getrandbits(2) until it is below 2.
    Here that rejection runs in C iterators, not two Python frames a bit."""
    return list(islice(filter((2).__gt__, iter(partial(rng.getrandbits, 2), -1)), n))


def _sample_pair(lang: LanguageSpec, n: int, rng, want: int):
    """One seeded (x, y) pair of bit lists of class want (lifted: x != 0;
    _pair_bits fixes it)."""
    xb = _random_bits(rng, n)
    yb = _random_bits(rng, n)
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
    elif not any(xb):
        xb[rng.randrange(n)] = 1
    return xb, yb


def _row(family: str, machine, x: np.ndarray, y: np.ndarray, member: np.ndarray,
         prob: np.ndarray, t_run: np.ndarray, visited: np.ndarray,
         crossings: np.ndarray) -> SweepRow:
    """The sweep row of a machine's runs on the pairs (x_i, y_i), bit-matrix
    rows in input order, from each run's membership, acceptance probability,
    time, census and crossings."""
    n, space = x.shape[1], machine_space(machine)
    certificate_check(space, t_run, crossings, n)
    t_max = int(t_run.max())
    # one class's errors at a time: both at once keep a row-sized array more alive
    member_err, worst_member = _worst(np.where(member, 1.0 - prob, 0.0), x, y)
    nonmember_err, worst_nonmember = _worst(np.where(member, 0.0, prob), x, y)
    s_visited = machine.qubits + math.log2(max(1, int(visited.max())))
    return SweepRow(family, n, t_max, space, s_visited, t_max * space, member_err,
                    nonmember_err, worst_member=worst_member, worst_nonmember=worst_nonmember)


def _worst(err: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple:
    """A class's largest error and the first pair with it; 0 names no pair."""
    i = int(err.argmax())
    if err[i] > 0:
        return float(err[i]), f"{bit_string(x[i])}|{bit_string(y[i])}"
    return 0.0, ""


# --- family evaluators: a row's (machine, x, y, member, prob, T, census, crossings)


def _eval_eq_dfa(n: int, samples: int, seed) -> tuple:
    machine = build_eq_dfa(n)
    xs, ys, xi, yi = _pair_bits(eq_language(n), n, samples, seed)
    # A row whose side words are fewer than its pairs (an exhaustive row)
    # shares prefixes between pairs, so its lanes pass through the same
    # states and each table entry serves many of them. A sampled row's
    # states carry its random x and almost never repeat: its pairs run
    # faster one by one (the n=64 and 256 rows, 24 pairs each: 0.09 s pair
    # by pair, 0.16 s in lockstep, on a 2-vCPU x86 VM).
    return _dfa_runs(machine, xs[xi], ys[yi], _regions(n), lockstep=len(xs) < len(xi))


def _dfa_runs(machine, x: np.ndarray, y: np.ndarray, regions,
              cutoff: int = DEFAULT_CUTOFF, lockstep: bool = True) -> tuple:
    """A row's runs of a 2DFA on the equality pairs x_i #^n y_i (bit-matrix
    rows in input order).

    With `lockstep`, every pair walks in lockstep (run_dfa_lanes). Without
    it, or when the walk hands a lane back, every pair runs through run_dfa
    on `regions` (its hand-offs the crossings) and its certificate is
    checked as the run ends, so the first pair that run_dfa or its
    certificate fails on raises its error, with its message."""
    n = x.shape[1]
    if lockstep:
        payloads = np.empty((x.shape[0], 3 * n), dtype=np.uint8)
        payloads[:, :n] = x
        payloads[:, n:2 * n] = PAYLOAD_SYMBOLS.index(HASH)
        payloads[:, 2 * n:] = y
        runs = run_dfa_lanes(machine, payloads, regions, cutoff)
        del payloads
    if not lockstep or runs.replay.any():
        runs = LaneRuns.zeros(x.shape[0])
        for i in range(x.shape[0]):
            trace = run_dfa(machine, bit_string(x[i]) + HASH * n + bit_string(y[i]),
                            cutoff, regions)
            crossings = len(trace.handoffs)
            certificate_check(machine_space(machine), trace.steps, crossings, n)
            runs.accepted[i], runs.steps[i], runs.visited[i], runs.crossings[i] = (
                trace.accepted_bit, trace.steps, trace.visited, crossings)
    return (machine, x, y, eq_language(n).values(x, y), runs.accepted, runs.steps,
            runs.visited, runs.crossings)


class _EqPfaFast:
    """Vectorized fingerprint-machine evaluator.

    Mirrors the machine exactly on well-formed input: acceptance probability
    is the fraction of primes with x = y mod p; T = 9n+4 on every branch;
    the visited census decomposes into shared form/rewind states, two
    walk states per prime, the distinct (power, accumulator) pairs of the
    x re-read (a function of x alone), and the distinct running residues of
    the y comparison (a function of y alone).

    x_census and y_census take a (words x n) bit matrix, a block of words
    at a time. The y walk ends on y mod p, so x words alone need residues.

    The x re-read of prime p holds (2^i mod p, a_i) before bit i. When the
    powers 2^0..2^n mod p are pairwise distinct, its n+1 states are too.
    For odd p that holds unless 2^k = 1 mod p for some 1 <= k <= n (the
    multiplicative order of 2 is at most n); for p = 2 the powers repeat 0
    from n = 2 on. Only these "short" primes (206 of the 6542 up to 256^2)
    are walked and sorted; every other prime adds exactly n+1 states.
    """

    def __init__(self, n: int):
        self.n = n
        table = PrimeTable.for_side_length(n)
        self.prime_list, self.count = table.primes, table.count
        self.t_run = eq_pfa_time(n)
        self.shared = (3 * n + 1) + 2 * n + 2 * table.count
        # residues fit the narrowest unsigned type holding the largest prime;
        # a doubled residue (2b + bit, 2 * 2^k) < 2p is reduced in one holding 2p
        top = table.primes[-1]
        self.residue_dtype = np.min_scalar_type(top)
        self.primes = p = np.array(table.primes, dtype=np.min_scalar_type(2 * top))
        power = np.ones_like(p)
        short = p == 2
        for _ in range(n):
            power = np.minimum(2 * power, 2 * power - p)
            short |= power == 1
        self.short_primes = p[short]
        self.long_states = (n + 1) * (self.count - self.short_primes.size)

    def residues(self, xs: np.ndarray) -> np.ndarray:
        """(words x primes) residues x mod p of a bit matrix's words."""
        out = np.empty((len(xs), self.count), dtype=self.residue_dtype)
        for row, w in zip(out, xs):
            v = int(bit_string(w), 2)
            row[:] = [v % p for p in self.prime_list]
        return out

    def x_census(self, xs: np.ndarray) -> np.ndarray:
        """Distinct ("b", p, pow, a) states of each word's right-to-left x
        read, including the state at the left end marker (it originates the
        hop into the walk state, so the census counts it)."""
        n, p = self.n, self.short_primes
        top = int(p.max())                      # 2 is always short
        power = np.ones((n + 1, p.size), dtype=p.dtype)
        for i in range(n):
            power[i + 1] = np.minimum(2 * power[i], 2 * power[i] - p)
        # a code pow * p + a < p^2, which passes 2^32 from n = 257 on
        base = (power.astype(np.min_scalar_type(top * top)) * p).T
        census = np.empty(len(xs), dtype=np.int64)
        for lo, bits, codes in _blocks(xs[:, ::-1], p.size, n + 1, base.dtype):
            # the state before bit i holds a_i = sum of bit_k 2^k mod p over k < i
            codes[:] = base
            codes[:, :, 1:] += np.cumsum(bits[:, None, :] * power[:n].T, axis=2,
                                         dtype=np.min_scalar_type(n * top)) % p[:, None]
            census[lo:lo + len(bits)] = _distinct(codes)
        return census + self.long_states

    def y_census(self, ys: np.ndarray) -> tuple:
        """Distinct ("r", p, a, b) states of each word's left-to-right y read
        (a is fixed per branch, so only b varies), and the (words x primes)
        residues y mod p it ends on. Steps are written 32 at a time."""
        n, p = self.n, self.primes
        census = np.empty(len(ys), dtype=np.int64)
        residues = np.empty((len(ys), p.size), dtype=self.residue_dtype)
        for lo, bits, codes in _blocks(ys, p.size, n, self.residue_dtype):
            b = np.zeros((len(bits), p.size), dtype=p.dtype)
            wrapped = np.empty_like(b)
            chunk = np.empty((32, len(bits), p.size), dtype=self.residue_dtype)
            for start in range(0, n, 32):
                stop = min(start + 32, n)
                for i in range(start, stop):
                    b <<= 1
                    b += bits[:, i, None]
                    # 2b + bit < 2p: one subtraction reduces; below p it wraps past b
                    np.subtract(b, p, out=wrapped)
                    np.minimum(b, wrapped, out=b)
                    chunk[i - start] = b        # state after consuming bit i
                codes[:, :, start:stop] = chunk[:stop - start].transpose(1, 2, 0)
            residues[lo:lo + len(bits)] = b
            census[lo:lo + len(bits)] = _distinct(codes)
        return census, residues


def _blocks(words: np.ndarray, primes: int, steps: int, dtype):
    """(first row, rows, codes) per block of as many words as fit CENSUS_CELLS
    (primes x steps) codes, at least one; codes views one reused buffer."""
    size = max(1, CENSUS_CELLS // (primes * steps))
    buffer = np.empty((min(size, len(words)), primes, steps), dtype=dtype)
    for lo in range(0, len(words), size):
        yield lo, words[lo:lo + size], buffer[:len(words) - lo]


def _distinct(codes: np.ndarray) -> np.ndarray:
    """Per word, the distinct codes of each prime's row summed over the primes."""
    codes.sort(axis=2)
    return codes.shape[1] + np.array(
        [np.count_nonzero(c[:, 1:] != c[:, :-1]) for c in codes], dtype=np.int64)


def _eval_eq_pfa(n: int, samples: int, seed) -> tuple:
    from .handcrafted import build_eq_pfa
    machine = build_eq_pfa(n)
    fast = _EqPfaFast(n)
    lang = eq_language(n)
    xs, ys, xi, yi = _pair_bits(lang, n, samples, seed)
    # census parts once per side word, gathered per pair; the y walk ends on
    # the y residues, and an exhaustive row's x words are its y words. A
    # sampled row pairs x word i with y word i, so only the x words that
    # differ from theirs need residues of their own
    r_census, ry = fast.y_census(ys)
    if xs is ys:
        rx = ry
    else:
        rx = ry.copy()
        differ = np.flatnonzero((xs != ys).any(axis=1))
        rx[differ] = fast.residues(xs[differ])
    visited = fast.shared + fast.x_census(xs)[xi] + r_census[yi]
    prob = (rx[xi] == ry[yi]).sum(axis=1) / fast.count
    x, y = xs[xi], ys[yi]
    return (machine, x, y, lang.values(x, y), prob,
            np.broadcast_to(fast.t_run, prob.shape), visited, np.broadcast_to(3, prob.shape))


def _eval_compiled(alg_builder, n: int, samples: int, seed, lang) -> tuple:
    """Every pair of the row of lang through one run_compiled_lanes call."""
    rep = compile_query_to_qcfa(alg_builder(n), and_gadget(), n)
    xs, ys, xi, yi = _pair_bits(lang, n, samples, seed)
    x, y = xs[xi], ys[yi]
    runs = run_compiled_lanes(rep, x, y)
    return (rep.machine, x, y, lang.values(x, y), runs.accept_probability, runs.t_max,
            runs.visited, runs.crossings_max)


def _eval_grover_ints(n: int, samples: int, seed) -> tuple:
    return _eval_compiled(grover_or, n, samples, seed, ints_language(n))


def _eval_parity_lifted(n: int, samples: int, seed) -> tuple:
    if n % 2:
        raise InputError("exact-parity-lifted needs even n")
    return _eval_compiled(exact_parity, n, samples, seed,
                          lifted_language(ComposedFunction(xor_fn(n), and_gadget())))


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
            row = _row(family, *evaluator(n, samples_per_n, seed))
        except Exception as exc:
            raise type(exc)(f"{family} at n={n}: {exc}") from exc
        row.wall_seconds = time.perf_counter() - started
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
