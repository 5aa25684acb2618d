"""Parameter sweeps, CSV emission, and scaling-exponent fits.

A sweep row records the worst-case time, declared and visited space, and
worst-case error of one machine family at one side length n. Families run
exhaustively over all (x, y) pairs while 2^(2n) <= 2^16 and over seeded
member/non-member samples beyond that.

Every evaluated run is also checked against the protocol-extraction
certificate: crossings * n <= T and transferred bits <= S * floor(T/n) + 1.

The equality sweep machine's exhaustive rows walk every pair of the row in
lockstep (lockstep.run_dfa_lanes): the machine's transitions are tabulated
the first time a pair of the row needs them. A lane the walk hands back (a
failing transition, a bad head position, a long run) or whose certificate
fails is replayed through run_dfa and the owner walk in input order, so the
row raises the error the first failing pair raises on its own. Its sampled
rows, whose states seldom repeat, take that per-run path for every pair.
Either way, language values and worst inputs are array operations over the
row's pairs.

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
from .boolfn import HASH, LanguageSpec, eq_language, ints_language, lifted_language, ComposedFunction, and_gadget, xor_fn
from .commlab import _owner_walk, _regions, machine_space
from .compiler import compile_query_to_qcfa, run_compiled
from .errors import InputError, SpecError
from .handcrafted import PrimeTable, build_eq_dfa, eq_pfa_time
from .lockstep import LaneRuns, distinct_per_row, run_dfa_lanes
from .qquery import exact_parity, grover_or

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


def _pair_iter(lang: LanguageSpec, n: int, samples: int, seed):
    """Exhaustive (x, y) enumeration when small enough, else seeded samples
    split evenly between members and non-members.

    Sampling is constructive, not rejection based: a random pair is almost
    never an equality member (or an intersection non-member) once n is
    large, so each class is built directly and then checked."""
    if 1 << (2 * n) <= EXHAUSTIVE_LIMIT:
        for xv in range(1 << n):
            x = format(xv, f"0{n}b")
            for yv in range(1 << n):
                yield x, format(yv, f"0{n}b")
        return
    rng = random.Random(f"{seed}:{lang.name}:{n}")
    for want in (1, 0):
        for _ in range(samples):
            x, y = _sample_pair(lang, n, rng, want)
            if lang.value(x, y) != want:
                raise SpecError(f"sampler produced the wrong class for {lang.name}")
            yield x, y


def _sample_pair(lang: LanguageSpec, n: int, rng, want: int):
    """One seeded (x, y) pair with lang.value(x, y) == want."""
    xb = [rng.randrange(2) for _ in range(n)]
    yb = [rng.randrange(2) for _ in range(n)]
    if lang.kind == "eq":
        if want:
            return "".join(map(str, xb)), "".join(map(str, xb))
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
        x = "".join(map(str, xb))
        if lang.value(x, "".join(map(str, yb))) != want:
            i = next(i for i, b in enumerate(xb) if b)
            yb[i] ^= 1
    return "".join(map(str, xb)), "".join(map(str, yb))


@dataclass
class _Accum:
    """Worst-case accumulators shared by every family evaluator."""

    lang: LanguageSpec
    space: float
    qubits: float = 0.0            # the evaluated machine's register size
    t_max: int = 0
    visited_max: int = 0
    member_err: float = 0.0
    nonmember_err: float = 0.0
    worst_member: str = ""
    worst_nonmember: str = ""
    evaluated: int = 0

    def add(self, x: str, y: str, prob: float, t_run: int, visited: int,
            crossings: int) -> None:
        certificate_check(self.space, t_run, crossings, len(x))
        self.evaluated += 1
        self.t_max = max(self.t_max, t_run)
        self.visited_max = max(self.visited_max, visited)
        if self.lang.value(x, y):
            err = 1.0 - prob
            if err > self.member_err:
                self.member_err = err
                self.worst_member = f"{x}|{y}"
        else:
            if prob > self.nonmember_err:
                self.nonmember_err = prob
                self.worst_nonmember = f"{x}|{y}"

    def add_lanes(self, x: np.ndarray, y: np.ndarray, member: np.ndarray,
                  prob: np.ndarray, t_run: np.ndarray, visited: np.ndarray) -> None:
        """add() over pairs given as bit-matrix rows in _pair_iter order,
        once every pair's certificate has passed: the worst input of a class
        is its first pair whose error exceeds the running maximum."""
        self.evaluated += len(prob)
        if not len(prob):
            return
        self.t_max = max(self.t_max, int(t_run.max()))
        self.visited_max = max(self.visited_max, int(visited.max()))
        member_err = np.where(member, 1.0 - prob, 0.0)
        i = int(member_err.argmax())        # argmax: the first maximum
        if member_err[i] > self.member_err:
            self.member_err = float(member_err[i])
            self.worst_member = f"{_word(x[i])}|{_word(y[i])}"
        nonmember_err = np.where(member, 0.0, prob)
        i = int(nonmember_err.argmax())
        if nonmember_err[i] > self.nonmember_err:
            self.nonmember_err = float(nonmember_err[i])
            self.worst_nonmember = f"{_word(x[i])}|{_word(y[i])}"


# --- family evaluators ---------------------------------------------------------


def _eval_eq_dfa(n: int, samples: int, seed) -> _Accum:
    machine = build_eq_dfa(n)
    lang = eq_language(n)
    acc = _Accum(lang, machine_space(machine))
    x, y = _pair_bits(lang, n, samples, seed)
    # An exhaustive row's pairs share their prefixes, so its lanes pass
    # through the same states and each table entry serves many of them. A
    # sampled row's states carry its random x and almost never repeat: its
    # pairs run faster one by one (the n=64 and 256 rows, 24 pairs each:
    # 0.09 s pair by pair, 0.16 s in lockstep, on a 2-vCPU x86 VM).
    _add_dfa_pairs(acc, machine, x, y, _regions(n),
                   lockstep=1 << (2 * n) <= EXHAUSTIVE_LIMIT)
    return acc


def _add_dfa_pairs(acc: _Accum, machine, x: np.ndarray, y: np.ndarray, regions,
                   cutoff: int = DEFAULT_CUTOFF, lockstep: bool = True) -> None:
    """Add the runs of a 2DFA on the equality pairs x_i #^n y_i (bit-matrix
    rows in _pair_iter order) to acc.

    With `lockstep`, every pair walks in lockstep (run_dfa_lanes); without
    it, every pair is handed back. The lanes handed back, and those whose
    certificate fails, go through the per-run path (run_dfa, _owner_walk,
    certificate_check) in input order, so the first pair that path fails on
    raises its error, with its message."""
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
    steps, crossings = runs.steps, runs.crossings
    bits = crossings * math.ceil(acc.space) + 1
    suspect = (runs.replay | (crossings * n > steps)
               | (bits > acc.space * (steps // n) + 1))
    for i in np.flatnonzero(suspect).tolist():
        if runs.replay[i]:
            trace = run_dfa(machine, _word(x[i]) + HASH * n + _word(y[i]),
                            cutoff, record_positions=True)
            crossings[i] = len(_owner_walk(trace.positions, regions))
            runs.accepted[i], steps[i], runs.visited[i] = (
                trace.accepted_bit, trace.steps, trace.visited)
        certificate_check(acc.space, int(steps[i]), int(crossings[i]), n)
    acc.add_lanes(x, y, (x == y).all(axis=1), runs.accepted.astype(float),
                  steps, runs.visited)


def _pair_bits(lang: LanguageSpec, n: int, samples: int, seed):
    """The pairs of _pair_iter, in its order, as x and y bit matrices (one
    row per pair); exhaustive rows are built from the integers directly."""
    if 1 << (2 * n) <= EXHAUSTIVE_LIMIT:
        values = np.arange(1 << n)
        bits = ((values[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
        return np.repeat(bits, 1 << n, axis=0), np.tile(bits, (1 << n, 1))
    sides = ["".join(side) for side in zip(*_pair_iter(lang, n, samples, seed))]
    return tuple(np.frombuffer(side.encode(), np.uint8).reshape(-1, n) - ord("0")
                 for side in sides or ("", ""))


def _word(bits: np.ndarray) -> str:
    return "".join("01"[b] for b in bits.tolist())


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
        fixed per branch so only the running residue b varies."""
        p = self.reduce_primes
        b = np.zeros_like(p)
        codes = np.empty((self.n, p.shape[0]), dtype=self.residue_dtype)
        for i, ch in enumerate(y):
            b <<= 1
            if ch == "1":
                b += 1
            b -= p * (b >= p)           # 2b + bit < 2p: one subtraction reduces
            codes[i] = b                # state after consuming bit i
        return int(distinct_per_row(codes.T).sum())

    def census(self, x: str, y: str) -> int:
        return self.shared + self.b_census(x) + self.r_census(y)

    def prob(self, x: str, y: str) -> float:
        return float(np.count_nonzero(self.residues(x) == self.residues(y))) / self.count


def _eval_eq_pfa(n: int, samples: int, seed) -> _Accum:
    from .handcrafted import build_eq_pfa
    machine = build_eq_pfa(n)
    lang = eq_language(n)
    acc = _Accum(lang, machine_space(machine))
    fast = _EqPfaFast(n)
    if 1 << (2 * n) <= EXHAUSTIVE_LIMIT:
        # fully vectorized over all pairs: the census splits into an x part
        # and a y part, so the worst case is (max over x) + (max over y)
        res = np.stack([fast.residues(format(v, f"0{n}b")) for v in range(1 << n)])
        eqs = (res[:, None, :] == res[None, :, :]).sum(axis=2)
        probs = eqs / fast.count
        b_parts = [fast.b_census(format(v, f"0{n}b")) for v in range(1 << n)]
        r_parts = [fast.r_census(format(v, f"0{n}b")) for v in range(1 << n)]
        acc.t_max = fast.t_run
        acc.visited_max = fast.shared + max(b_parts) + max(r_parts)
        certificate_check(acc.space, fast.t_run, 3, n)
        off = ~np.eye(1 << n, dtype=bool)
        worst = probs[off].max() if off.any() else 0.0
        acc.nonmember_err = float(worst)
        if worst > 0:           # as in _Accum.add, a zero error names no input
            xv, yv = (int(v) for v in np.argwhere((probs == worst) & off)[0])
            acc.worst_nonmember = f"{format(xv, f'0{n}b')}|{format(yv, f'0{n}b')}"
        acc.member_err = float(1.0 - probs.diagonal().min())
        acc.evaluated = 1 << (2 * n)
        return acc
    for x, y in _pair_iter(lang, n, samples, seed):
        acc.add(x, y, fast.prob(x, y), fast.t_run, fast.census(x, y), 3)
    return acc


def _eval_compiled(alg_builder, n: int, samples: int, seed, lang) -> _Accum:
    rep = compile_query_to_qcfa(alg_builder(n), and_gadget(), n)
    acc = _Accum(lang, machine_space(rep.machine), rep.machine.qubits)
    for x, y in _pair_iter(lang, n, samples, seed):
        r = run_compiled(rep, x, y)
        acc.add(x, y, float(r.accept_probability), r.t_max, r.visited,
                r.crossings_max)
    return acc


def _eval_grover_ints(n: int, samples: int, seed) -> _Accum:
    return _eval_compiled(grover_or, n, samples, seed, ints_language(n))


def _eval_parity_lifted(n: int, samples: int, seed) -> _Accum:
    if n % 2:
        raise InputError("exact-parity-lifted needs even n")
    lang = lifted_language(ComposedFunction(xor_fn(n), and_gadget()))
    return _eval_compiled(exact_parity, n, samples, seed, lang)


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
