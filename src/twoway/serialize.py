"""JSON round-trips for machines, query algorithms, and report objects.

Small machines carry explicit transition tables; generated families (the
equality machines, compiled machines) serialize as named generator
references and are rebuilt by their constructor on load. Unitaries inside
algorithm dumps use each operator's structured description; dense matrices
appear as row-major [real, imag] pairs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .automata import TwoWayDfa, TwoWayPfa, TwoWayQcfa, dfa_from_table, pfa_from_table
from .boolfn import PAYLOAD_ALPHABET, parse_gadget
from .errors import InputError, UnsupportedStructureError
from .ops import BasisSwapOp
from .qquery import KIND_CONTINUE, KINDS, QueryAlgorithm, parse_query_algorithm

__all__ = [
    "machine_to_json",
    "load_machine",
    "algorithm_to_json",
    "load_algorithm",
    "report_to_json",
    "transcript_to_json",
    "save_json",
    "load_json",
]

FORMAT_MACHINE = "twoway-automaton"
FORMAT_ALGORITHM = "twoway-query-algorithm"


def _state_out(s):
    if isinstance(s, tuple):
        return [_state_out(v) for v in s]
    return s


def _state_in(s):
    if isinstance(s, list):
        return tuple(_state_in(v) for v in s)
    return s


def machine_to_json(machine) -> dict:
    src = machine.source
    if src is None:
        raise UnsupportedStructureError(
            f"{machine.name} carries no serialization source"
        )
    out = {
        "format": FORMAT_MACHINE,
        "kind": machine.kind,
        "name": machine.name,
        "alphabet": list(PAYLOAD_ALPHABET),
        "circular": machine.circular,
        "declared_bound": machine.states.declared_bound,
        "bound_formula": machine.states.bound_formula,
    }
    if "generator" in src:
        out["generator"] = dict(src)
        return out
    if not src.get("explicit"):
        raise UnsupportedStructureError(
            f"{machine.name}: source is neither a generator nor an explicit table"
        )
    out["initial"] = _state_out(src["initial"])
    out["accept"] = [_state_out(s) for s in src["accept"]]
    out["reject"] = [_state_out(s) for s in src["reject"]]
    if machine.kind == "2dfa":
        out["transitions"] = [
            [_state_out(s), sym, _state_out(s2), mv]
            for (s, sym), (s2, mv) in src["table"].items()
        ]
    elif machine.kind == "2pfa":
        out["transitions"] = [
            [_state_out(s), sym,
             [[str(pr), _state_out(s2), mv] for pr, s2, mv in dist]]
            for (s, sym), dist in src["table"].items()
        ]
    else:
        raise UnsupportedStructureError(
            "quantum machines serialize as generator references only"
        )
    return out


def load_machine(data) -> TwoWayDfa | TwoWayPfa | TwoWayQcfa:
    if not isinstance(data, dict):
        data = load_json(data)
    if data.get("format") != FORMAT_MACHINE:
        raise InputError("not an automaton document")
    gen = data.get("generator")
    if gen is not None:
        return _build_generator(gen)
    kind = data["kind"]
    initial = _state_in(data["initial"])
    accept = {_state_in(s) for s in data["accept"]}
    reject = {_state_in(s) for s in data["reject"]}
    if kind == "2dfa":
        table = {
            (_state_in(s), sym): (_state_in(s2), mv)
            for s, sym, s2, mv in data["transitions"]
        }
        return dfa_from_table(
            data["name"], table, initial, accept, reject, data["circular"]
        )
    if kind == "2pfa":
        table = {
            (_state_in(s), sym): [
                (Fraction(pr), _state_in(s2), mv) for pr, s2, mv in dist
            ]
            for s, sym, dist in data["transitions"]
        }
        return pfa_from_table(
            data["name"], table, initial, accept, reject, data["circular"]
        )
    raise UnsupportedStructureError(f"cannot load explicit {kind} tables")


def _build_generator(gen: dict):
    gid = gen.get("generator")
    if gid == "eq-dfa":
        from .handcrafted import build_eq_dfa
        return build_eq_dfa(gen["n"])
    if gid == "eq-pfa":
        from .handcrafted import build_eq_pfa
        return build_eq_pfa(gen["n"])
    if gid == "compiled":
        from .compiler import compile_query_to_qcfa
        alg = parse_query_algorithm(gen["algorithm"])
        gadget = parse_gadget(gen["gadget"])
        return compile_query_to_qcfa(alg, gadget, gen["n"]).machine
    raise InputError(f"unknown machine generator {gid!r}")


def algorithm_to_json(alg: QueryAlgorithm) -> dict:
    """The algorithm's document: its operators, and one decision row per
    outcome its measurements can produce, from the decision tables each
    segment stated once on validation (alg.decisions)."""
    dim = alg.layout.dim
    segs = []
    for seg, rows in zip(alg.segments, alg.decisions):
        decisions = []
        for label, code, nxt, (a, b) in zip(seg.measurement.labels(), rows.kind.tolist(),
                                            rows.next_segment.tolist(), rows.swap.tolist()):
            row = {"label": label, "kind": KINDS[code]}
            if code == KIND_CONTINUE:
                row["next_segment"] = nxt
                if a >= 0:
                    row["reset"] = BasisSwapOp(dim, a, b).describe()
            decisions.append(row)
        segs.append({
            "unitaries": [u.describe() for u in seg.unitaries],
            "measurement": seg.measurement.describe(),
            "decisions": decisions,
        })
    return {
        "format": FORMAT_ALGORITHM,
        "name": alg.name,
        "arity": alg.arity,
        "layout": {"index_dim": alg.layout.index_dim, "work_dim": alg.layout.work_dim},
        "declared_error": alg.declared_error,
        "query_constant": alg.query_constant,
        "total_calls": alg.total_calls,
        "generator": alg.generator,
        "segments": segs,
    }


def load_algorithm(data) -> QueryAlgorithm:
    if not isinstance(data, dict):
        data = load_json(data)
    if data.get("format") != FORMAT_ALGORITHM:
        raise InputError("not a query-algorithm document")
    gen = data.get("generator")
    if not gen:
        raise UnsupportedStructureError(
            "algorithms load from their generator reference; this document "
            "has none"
        )
    return parse_query_algorithm(f"{gen['generator']}:{gen['n']}")


def report_to_json(report) -> dict:
    return {
        "machine": report.machine.name,
        "quantum_basis_count": report.quantum_basis_count,
        "declared_states": report.declared_states,
        "declared_formula": report.declared_formula,
        "phase_table": report.phase_table,
        "n": report.n,
        "m": report.m,
        "p": report.p,
        "t": report.t,
        "time_bound": report.time_bound,
    }


def transcript_to_json(transcript) -> dict:
    return {
        "messages": [
            {"sender": m.sender, "bits": m.bits, "kind": m.kind, "note": m.note}
            for m in transcript.messages
        ],
        "total_bits": transcript.total_bits,
        "crossings": transcript.crossings,
        "output": transcript.output,
    }


def save_json(data: dict, path) -> None:
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())
