"""JSON round-trips: generator references, explicit tables, reports."""

from fractions import Fraction

import numpy as np
import pytest

from twoway.automata import (
    StateSpace,
    TwoWayQcfa,
    dfa_from_table,
    pfa_exact,
    pfa_from_table,
    qcfa_exact,
    run_dfa,
)
from twoway.boolfn import and_gadget
from twoway.commlab import extract_protocol
from twoway.compiler import compile_query_to_qcfa
from twoway.errors import InputError, UnsupportedStructureError
from twoway.handcrafted import build_eq_dfa, build_eq_pfa
from twoway.ops import DenseOp, Measurement
from twoway.qquery import exact_parity, grover_or
from twoway.serialize import (
    FORMAT_MACHINE,
    algorithm_to_json,
    load_algorithm,
    load_json,
    load_machine,
    machine_to_json,
    report_to_json,
    save_json,
    transcript_to_json,
)


def payload(x: str, y: str) -> str:
    return x + "#" * len(x) + y


def test_eq_dfa_round_trips_as_generator(tmp_path):
    m = build_eq_dfa(4)
    doc = machine_to_json(m)
    assert doc["generator"]["generator"] == "eq-dfa"
    path = tmp_path / "m.json"
    save_json(doc, path)
    m2 = load_machine(load_json(path))
    assert m2.states.declared_bound == m.states.declared_bound
    for x, y in [("1010", "1010"), ("1010", "1011"), ("0000", "1111")]:
        a = run_dfa(m, payload(x, y))
        b = run_dfa(m2, payload(x, y))
        assert (a.outcome, a.steps, a.visited) == (b.outcome, b.steps, b.visited)


def test_eq_pfa_round_trips_with_exact_probability():
    m = build_eq_pfa(3)
    m2 = load_machine(machine_to_json(m))
    for x, y in [("101", "101"), ("101", "011")]:
        a = pfa_exact(m, payload(x, y))
        b = pfa_exact(m2, payload(x, y))
        assert a.accept_probability == b.accept_probability
        assert a.t_max == b.t_max


def test_compiled_machine_round_trips_as_generator():
    rep = compile_query_to_qcfa(grover_or(2), and_gadget(), 2)
    doc = machine_to_json(rep.machine)
    assert doc["generator"]["algorithm"] == "grover-or:2"
    assert doc["generator"]["gadget"] == "and1"
    m2 = load_machine(doc)
    for x, y in [("01", "01"), ("11", "10"), ("00", "00")]:
        a = qcfa_exact(rep.machine, payload(x, y))
        b = qcfa_exact(m2, payload(x, y))
        assert a.accept_probability == b.accept_probability
        assert a.t_max == b.t_max


def zeros_dfa():
    table = {
        ("scan", "¢"): ("scan", 1),
        ("scan", "0"): ("scan", 1),
        ("scan", "1"): (("halt", 0), 0),
        ("scan", "$"): (("halt", 1), 0),
    }
    return dfa_from_table(
        "zeros", table, "scan", {("halt", 1)}, {("halt", 0)}
    )


def test_explicit_dfa_table_round_trips_through_file(tmp_path):
    m = zeros_dfa()
    path = tmp_path / "zeros.json"
    save_json(machine_to_json(m), path)
    m2 = load_machine(load_json(path))
    # tuple-valued states come back as tuples, not lists
    for w in ["", "0", "1", "00", "01", "10", "000", "010"]:
        a, b = run_dfa(m, w), run_dfa(m2, w)
        assert (a.outcome, a.steps) == (b.outcome, b.steps)


def test_explicit_pfa_preserves_fractions(tmp_path):
    table = {
        ("s", "¢"): [
            (Fraction(1, 3), ("halt", 1), 0),
            (Fraction(2, 3), ("halt", 0), 0),
        ],
    }
    m = pfa_from_table("third", table, "s", {("halt", 1)}, {("halt", 0)})
    doc = machine_to_json(m)
    dist = doc["transitions"][0][2]
    assert [row[0] for row in dist] == ["1/3", "2/3"]
    path = tmp_path / "third.json"
    save_json(doc, path)
    m2 = load_machine(load_json(path))
    assert pfa_exact(m2, "0").accept_probability == Fraction(1, 3)


def test_pfa_document_with_the_old_one_shot_key_loads_and_solves():
    table = {("s", "¢"): [(Fraction(1, 3), "yes", 0), (Fraction(2, 3), "no", 0)]}
    doc = machine_to_json(pfa_from_table("old", table, "s", {"yes"}, {"no"}))
    assert "one_shot" not in doc
    doc["one_shot"] = True                 # what older documents carry
    res = pfa_exact(load_machine(doc), "0")
    assert (res.accept_probability, res.t_max, res.branch_count) == (Fraction(1, 3), 1, 2)


def test_algorithm_round_trips_by_generator_reference():
    alg = exact_parity(4)
    doc = algorithm_to_json(alg)
    assert doc["total_calls"] == alg.total_calls
    assert len(doc["segments"]) == len(alg.segments)
    alg2 = load_algorithm(doc)
    assert alg2.name == alg.name and alg2.arity == alg.arity
    doc["generator"] = None
    with pytest.raises(UnsupportedStructureError):
        load_algorithm(doc)


def test_grover_decision_rows_in_the_algorithm_document():
    # grover_or(2): 4 basis outcomes (index, answer bit) over 8 rounds;
    # answer bit 1 accepts, otherwise the outcome is swapped with the
    # canonical index 0 and continues, or rejects in the last round
    segs = algorithm_to_json(grover_or(2))["segments"]
    assert len(segs) == 8
    assert segs[0]["decisions"] == [
        {"label": 0, "kind": "continue", "next_segment": 1,
         "reset": {"op": "basis-swap", "a": 0, "b": 0}},
        {"label": 1, "kind": "accept"},
        {"label": 2, "kind": "continue", "next_segment": 1,
         "reset": {"op": "basis-swap", "a": 2, "b": 0}},
        {"label": 3, "kind": "accept"},
    ]
    assert segs[-1]["decisions"] == [
        {"label": 0, "kind": "reject"},
        {"label": 1, "kind": "accept"},
        {"label": 2, "kind": "reject"},
        {"label": 3, "kind": "accept"},
    ]


def test_report_and_transcript_exports():
    rep = compile_query_to_qcfa(grover_or(2), and_gadget(), 2)
    rdoc = report_to_json(rep)
    assert rdoc["machine"] == rep.machine.name
    assert rdoc["quantum_basis_count"] == rep.quantum_basis_count
    assert len(rdoc["phase_table"]) >= 1
    tr = extract_protocol(build_eq_dfa(3), "101", "101")
    tdoc = transcript_to_json(tr)
    assert tdoc["total_bits"] == tr.total_bits
    assert tdoc["crossings"] == tr.crossings
    assert tdoc["output"] == 1
    assert len(tdoc["messages"]) == len(tr.messages)


def test_save_json_is_stable(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    doc = machine_to_json(build_eq_pfa(5))
    save_json(doc, a)
    save_json(load_json(a), b)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().endswith("\n")


def test_unserializable_machines_are_refused():
    h = DenseOp(np.array([[1, 1], [1, -1]]) / np.sqrt(2), "H")
    meas = Measurement(2, {"zero": (0,), "one": (1,)}, "read")
    space = StateSpace(
        "go", lambda s: {"acc": "accept", "rej": "reject"}.get(s), 4, "4"
    )
    m = TwoWayQcfa(
        "had", space, 2,
        lambda s, sym: h if s == "go" else meas,
        lambda s, sym: ("read", 0),
        lambda s, sym, lb: ("acc" if lb == "zero" else "rej", 0),
    )
    with pytest.raises(UnsupportedStructureError):
        machine_to_json(m)              # no serialization source at all


def test_load_rejects_foreign_documents():
    with pytest.raises(InputError):
        load_machine({"format": "something-else"})
    with pytest.raises(InputError):
        load_machine({"format": FORMAT_MACHINE,
                      "generator": {"generator": "bogus", "n": 3}})
