"""The benchmark's workloads: what one round runs, and what set-up builds.

A round is the unit the benchmark times: one fresh process runs every sweep
of the workload (as `twoway sweep` would), then its sampled trajectories and
exact runs. Inputs come only from the round's pool seed; the package receives
the generated inputs (the sweep seed is passed through to `sweep_ts`, which
derives its samples from it).

twoway is imported inside the functions so that a set-up process can time
the import itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EXHAUSTIVE_LIMIT = 1 << 16     # sweep rows run all 4^n pairs up to this count
SAMPLER_INPUTS = 4              # distinct inputs per sampled machine


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json records why each was chosen."""

    name: str
    # (family, side lengths, samples_per_n) per sweep_ts call
    sweeps: tuple = ()
    # (machine id, trajectories) per sampled machine
    samplers: tuple = ()
    # (machine id, runs) per machine evaluated by its exact runner
    exact: tuple = ()

    @staticmethod
    def from_dict(d: dict) -> "Workload":
        return Workload(
            d["name"],
            tuple((f, tuple(ns), s) for f, ns, s in d["sweeps"]),
            tuple(tuple(s) for s in d["samplers"]),
            tuple(tuple(e) for e in d["exact"]),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ints-sweep",
            sweeps=(("grover-ints", (256, 1024), 1),),
        ),
        Workload(
            "parity-large",
            sweeps=(("exact-parity-lifted", (512,), 1),),
        ),
        Workload(
            "small-exhaustive",
            sweeps=(("grover-ints", (4,), 1), ("exact-parity-lifted", (4,), 1)),
        ),
        Workload(
            "walkers",
            sweeps=(("eq-dfa", (8, 64, 256), 12), ("eq-pfa", (8, 64, 256), 12)),
            samplers=(("eq-pfa:16", 256), ("grover-or:4", 256),
                      ("exact-parity:4", 256)),
            exact=(("eq-pfa:16", 12), ("grover-or:4", 24),
                   ("exact-parity:4", 24)),
        ),
    )
}


def row_inputs(n: int, samples: int) -> int:
    """Inputs a sweep row evaluates: every pair when small, else samples of
    each class."""
    return 4 ** n if 4 ** n <= EXHAUSTIVE_LIMIT else 2 * samples


def round_inputs(w: Workload) -> int:
    return (
        sum(row_inputs(n, s) for _, ns, s in w.sweeps for n in ns)
        + sum(t for _, t in w.samplers)
        + sum(r for _, r in w.exact)
    )


# --- machines ------------------------------------------------------------------


def build_machine(ident: str):
    """(machine, compilation report or None) for a machine id: eq-pfa:<n>,
    or grover-or:<n> / exact-parity:<n> compiled with the AND gadget."""
    import twoway as tw

    n = int(ident.partition(":")[2])
    if ident.startswith("eq-pfa"):
        return tw.build_eq_pfa(n), None
    rep = tw.compile_query_to_qcfa(
        tw.parse_query_algorithm(ident), tw.and_gadget(), n)
    return rep.machine, rep


def _build_family(family: str, n: int):
    import twoway as tw

    if family == "eq-dfa":
        return tw.build_eq_dfa(n)
    if family == "eq-pfa":
        return tw.build_eq_pfa(n)
    alg = tw.grover_or(n) if family == "grover-ints" else tw.exact_parity(n)
    return tw.compile_query_to_qcfa(alg, tw.and_gadget(), n)


def setup(w: Workload) -> None:
    """Build or compile every machine the workload uses."""
    for family, ns, _ in w.sweeps:
        for n in ns:
            _build_family(family, n)
    for ident in sorted({m for m, _ in w.samplers + w.exact}):
        build_machine(ident)


# --- inputs --------------------------------------------------------------------


def machine_inputs(ident: str, pool_seed: int, count: int) -> list:
    """`count` distinct seeded (x, y) pairs for a machine; for equality every
    other pair is a member, since random pairs almost never are.

    No machine is built here, so nothing the program might cache is warmed
    before the timed round."""
    is_eq = ident.startswith("eq-pfa")
    n = int(ident.partition(":")[2])
    rng = random.Random(f"perfbench:{pool_seed}:{ident}:{count}")
    pairs: list = []
    seen: set = set()
    while len(pairs) < count:
        x = format(rng.getrandbits(n), f"0{n}b")
        y = x if is_eq and len(pairs) % 2 == 0 else \
            format(rng.getrandbits(n), f"0{n}b")
        if (x, y) not in seen:
            seen.add((x, y))
            pairs.append((x, y))
    return pairs


def payload(x: str, y: str) -> str:
    return x + "#" * len(x) + y


# --- one round -----------------------------------------------------------------


def _row_dict(r) -> dict:
    return {
        "family": r.family, "n": r.n, "T": r.t_max,
        "S_declared": r.s_declared, "S_visited": r.s_visited,
        "member_err": r.member_err, "nonmember_err": r.nonmember_err,
        "worst_member": r.worst_member, "worst_nonmember": r.worst_nonmember,
    }


def run_round(w: Workload, pool_seed: int, inputs: dict) -> dict:
    """Run every part of the workload once on `inputs` from
    round_machine_inputs (made outside the timed region).

    The result holds what the correctness checks need: sweep rows, accept
    counts per sampled input, and exact probabilities."""
    import twoway as tw

    out = {"rows": [], "samples": [], "exact": []}
    for family, ns, samples in w.sweeps:
        rows = tw.sweep_ts(family, list(ns), samples_per_n=samples, seed=pool_seed)
        out["rows"] += [_row_dict(r) for r in rows]
    machines = {ident: build_machine(ident)[0]
                for ident in sorted({m for m, _ in w.samplers + w.exact})}
    for ident, trajectories in w.samplers:
        machine = machines[ident]
        sample = tw.run_pfa_sample if ident.startswith("eq-pfa") else tw.qcfa_sample
        pairs = inputs[f"sample:{ident}"]
        per_input = trajectories // len(pairs)
        for i, (x, y) in enumerate(pairs):
            word = payload(x, y)
            rng = random.Random(f"perfbench:{pool_seed}:{ident}:{i}")
            accepted = sum(sample(machine, word, seed=rng).accepted_bit
                           for _ in range(per_input))
            out["samples"].append([ident, x, y, accepted, per_input])
    for ident, _ in w.exact:
        machine = machines[ident]
        exact = tw.pfa_exact if ident.startswith("eq-pfa") else tw.qcfa_exact
        for x, y in inputs[f"exact:{ident}"]:
            prob = exact(machine, payload(x, y)).accept_probability
            out["exact"].append([ident, x, y, str(prob) if ident.startswith("eq-pfa")
                                 else float(prob)])
    return out


def round_machine_inputs(w: Workload, pool_seed: int) -> dict:
    """Inputs of the sampled and exact parts, keyed "sample:<id>" and
    "exact:<id>"."""
    out = {f"sample:{ident}": machine_inputs(ident, pool_seed, SAMPLER_INPUTS)
           for ident, _ in w.samplers}
    out.update({f"exact:{ident}": machine_inputs(ident, pool_seed, runs)
                for ident, runs in w.exact})
    return out
