"""Correctness checks on a round's outputs, made outside the timed region.

Every check is one (name, passed, detail) triple; the run's failed share is
failed checks over checks attempted.

- Sweep rows: T, S_declared and S_visited equal the reference recorded for
  the same pool seed, and the error fields match it within 1e-9.
- Published guarantees: T = 3n+2 for eq-dfa and 9n+4 for eq-pfa; compiled
  machines stay within T <= 8t(n+2)+4(n+2); grover-ints never accepts a
  non-member; eq-pfa's non-member error equals eq_pfa_exact_prob on the
  recorded worst input.
- Exact runners: qcfa_exact agrees with run_compiled within 1e-9, and
  pfa_exact equals eq_pfa_exact_prob exactly.
- Samplers: each input's acceptance frequency lies within 4 sigma of the
  exact probability.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import twoway as tw

import workloads

ERR_TOL = 1e-9
SIGMAS = 4.0


@lru_cache(maxsize=None)
def _report(ident: str):
    return workloads.build_machine(ident)[1]


@lru_cache(maxsize=None)
def _total_calls(family: str, n: int) -> int:
    alg = tw.grover_or(n) if family == "grover-ints" else tw.exact_parity(n)
    return alg.total_calls


def exact_probability(ident: str, x: str, y: str):
    """Reference acceptance probability: eq_pfa_exact_prob for the
    fingerprint machine, run_compiled for compiled machines."""
    if ident.startswith("eq-pfa"):
        return tw.eq_pfa_exact_prob(len(x), x, y)
    return tw.run_compiled(_report(ident), x, y).accept_probability


def check_rows(rows: list, ref_rows) -> list:
    if ref_rows is None:
        return [("reference", False, "no reference recorded for this pool seed")]
    if len(rows) != len(ref_rows):
        return [("reference", False, f"{len(rows)} rows, reference has {len(ref_rows)}")]
    out = []
    for row, ref in zip(rows, ref_rows):
        where = f"{row['family']} n={row['n']}"
        bad = [k for k in ("family", "n", "T", "S_declared", "S_visited")
               if row[k] != ref[k]]
        bad += [k for k in ("member_err", "nonmember_err")
                if abs(row[k] - ref[k]) > ERR_TOL]
        out.append((f"reference {where}", not bad,
                    ", ".join(f"{k}={row[k]!r} (reference {ref[k]!r})" for k in bad)))
    return out


def check_guarantees(rows: list) -> list:
    out = []
    for row in rows:
        fam, n, t = row["family"], row["n"], row["T"]
        where = f"{fam} n={n}"
        if fam == "eq-dfa":
            out.append((f"T=3n+2 {where}", t == 3 * n + 2, f"T={t}"))
        elif fam == "eq-pfa":
            out.append((f"T=9n+4 {where}", t == 9 * n + 4, f"T={t}"))
            worst = row["worst_nonmember"]
            want = float(tw.eq_pfa_exact_prob(n, *worst.split("|"))) if worst else 0.0
            out.append((f"eq-pfa worst non-member {where}",
                        row["nonmember_err"] == want,
                        f"nonmember_err={row['nonmember_err']!r}, exact {want!r}"))
        else:
            bound = 8 * _total_calls(fam, n) * (n + 2) + 4 * (n + 2)
            out.append((f"T bound {where}", t <= bound, f"T={t} > {bound}"))
            if fam == "grover-ints":
                out.append((f"one-sided {where}", row["nonmember_err"] == 0,
                            f"nonmember_err={row['nonmember_err']!r}"))
    return out


def check_exact(exact: list) -> list:
    out = []
    for ident, x, y, prob in exact:
        want = exact_probability(ident, x, y)
        where = f"{ident} {x}|{y}"
        if ident.startswith("eq-pfa"):
            ok = Fraction(prob) == want
        else:
            ok = abs(prob - want) <= ERR_TOL
        out.append((f"exact {where}", ok, f"{prob} vs reference {want}"))
    return out


def check_samples(samples: list) -> list:
    out = []
    for ident, x, y, accepted, trials in samples:
        p = float(exact_probability(ident, x, y))
        sigma = math.sqrt(max(p * (1.0 - p), 0.0) / trials)
        freq = accepted / trials
        ok = abs(freq - p) <= SIGMAS * sigma + 1e-12
        out.append((f"sampled {ident} {x}|{y}", ok,
                    f"frequency {freq:.4f}, exact {p:.4f}, sigma {sigma:.4f}"))
    return out


def check_round(result: dict, ref_rows) -> list:
    return (check_rows(result["rows"], ref_rows)
            + check_guarantees(result["rows"])
            + check_exact(result["exact"])
            + check_samples(result["samples"]))
