"""Command line front end.

Subcommands:
  simulate   run a machine on one payload (exact probability or one sample)
  compile    turn a query algorithm + gadget into a two-way machine
  protocol   extract a communication transcript from a machine run
  oracle     brute-force deterministic protocol cost / decision-tree depth
  sweep      evaluate a machine family across side lengths into a CSV
  fit        least-squares scaling exponent of a sweep CSV

Machine specs are either registry ids ("eq-dfa:8", "eq-pfa:8") or paths to
machine JSON files produced by `compile --out` or `save_json`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .automata import pfa_exact, qcfa_exact, run_dfa, run_pfa_sample, qcfa_sample
from .boolfn import parse_function, parse_gadget
from .commlab import FunctionMatrix, bruteforce_dcc, extract_protocol
from .compiler import compile_query_to_qcfa
from .errors import InputError, TwoWayError
from .handcrafted import build_eq_dfa, build_eq_pfa
from .harness import FAMILIES, fit_scaling, read_rows, sweep_ts, write_rows
from .qquery import build_optimal_dt, dt_optimal_depth, parse_query_algorithm
from .serialize import load_json, load_machine, machine_to_json, save_json


def _side_length(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{what} needs an integer side length, not {text!r}") from None


def _load_machine_spec(spec: str):
    if spec.endswith(".json"):
        return load_machine(load_json(spec))
    kind, _, arg = spec.partition(":")
    builder = {"eq-dfa": build_eq_dfa, "eq-pfa": build_eq_pfa}.get(kind)
    if builder is not None:
        return builder(_side_length(arg, f"machine spec {spec!r}"))
    raise TwoWayError(
        f"unknown machine spec {spec!r}; use eq-dfa:<n>, eq-pfa:<n>, or a .json path"
    )


def _cmd_simulate(args) -> int:
    machine = _load_machine_spec(args.machine)
    out: dict = {"machine": machine.name, "kind": machine.kind, "input": args.input}
    if args.mode == "sample":
        if machine.kind == "2dfa":
            trace = run_dfa(machine, args.input)
        elif machine.kind == "2pfa":
            trace = run_pfa_sample(machine, args.input, seed=args.seed)
        else:
            trace = qcfa_sample(machine, args.input, seed=args.seed)
        out.update(outcome=trace.outcome, steps=trace.steps,
                   visited=trace.visited, seed=args.seed)
    else:
        if machine.kind == "2dfa":
            trace = run_dfa(machine, args.input)
            out.update(outcome=trace.outcome,
                       accept_probability=float(trace.accepted_bit),
                       steps=trace.steps, visited=trace.visited)
        else:
            runner = pfa_exact if machine.kind == "2pfa" else qcfa_exact
            res = runner(machine, args.input)
            out.update(accept_probability=float(res.accept_probability),
                       t_max=res.t_max, visited=len(res.origin_states),
                       branches=res.branch_count)
    print(json.dumps(out, indent=2))
    return 0


def _cmd_compile(args) -> int:
    alg = parse_query_algorithm(args.algorithm)
    gadget = parse_gadget(args.gadget)
    rep = compile_query_to_qcfa(alg, gadget, args.n)
    print(f"machine:             {rep.machine.name}")
    print(f"quantum basis count: {rep.quantum_basis_count}")
    print(f"declared states:     {rep.declared_states}")
    print(f"declared formula:    {rep.declared_formula}")
    print(f"oracle calls:        {rep.t}")
    print("phase table:")
    for row in rep.phase_table:
        print("  " + ", ".join(f"{k}={v}" for k, v in row.items()))
    if args.out:
        save_json(machine_to_json(rep.machine), args.out)
        print(f"machine written to {args.out}")
    return 0


def _cmd_protocol(args) -> int:
    machine = _load_machine_spec(args.machine)
    tr = extract_protocol(machine, args.x, args.y, seed=args.seed)
    print(f"machine:    {machine.name}")
    print(f"crossings:  {tr.crossings}")
    print(f"total bits: {tr.total_bits}")
    print(f"output:     {tr.output}")
    for msg in tr.messages:
        note = f"  ({msg.note})" if msg.note else ""
        print(f"  {msg.sender}: {msg.bits} bits [{msg.kind}]{note}")
    return 0


def _cmd_oracle(args) -> int:
    if args.what == "dcc":
        matrix = FunctionMatrix.load(args.target)
        print(bruteforce_dcc(matrix))
    else:
        fn = parse_function(args.target)
        depth = dt_optimal_depth(fn)
        print(depth)
        if args.show_tree:
            print(json.dumps(_dt_to_obj(build_optimal_dt(fn)), indent=2))
    return 0


def _dt_to_obj(node):
    if node.var < 0:
        return {"value": node.value}
    return {"var": node.var, "low": _dt_to_obj(node.low), "high": _dt_to_obj(node.high)}


def _cmd_sweep(args) -> int:
    ns = [_side_length(v, "--n") for v in args.n.split(",") if v]
    rows = sweep_ts(args.family, ns, samples_per_n=args.samples, seed=args.seed)
    write_rows(rows, args.out)
    for r in rows:
        print(f"{r.family} n={r.n}: T={r.t_max} S={r.s_declared:.3f} "
              f"TS={r.ts:.6g} member_err={r.member_err:.3g} "
              f"nonmember_err={r.nonmember_err:.3g} ({r.wall_seconds:.2f}s)")
    print(f"wrote {args.out}")
    return 0


def _cmd_fit(args) -> int:
    rows = read_rows(args.csv)
    correction = "divide-by-log-n" if args.logcorrect else "none"
    fit = fit_scaling(rows, correction)
    print(f"slope:     {fit.slope:.6f}")
    print(f"intercept: {fit.intercept:.6f}")
    print(f"residual:  {fit.residual:.6f}")
    print(f"rows:      {fit.rows_used} ({fit.log_correction})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twoway",
        description="two-way automata from query algorithms: simulate, "
                    "compile, extract protocols, sweep, and fit",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a machine on one payload")
    p.add_argument("machine", help="eq-dfa:<n>, eq-pfa:<n>, or machine JSON path")
    p.add_argument("input", help="payload string, e.g. 0110 + hashes + 0110")
    p.add_argument("--mode", choices=("exact", "sample"), default="exact")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("compile", help="compile a query algorithm to a machine")
    p.add_argument("algorithm", help="grover-or:<arity> or exact-parity:<arity>")
    p.add_argument("--gadget", default="and1", help="and1 or ip:<m>")
    p.add_argument("--n", type=int, required=True, help="side length (blocks * width)")
    p.add_argument("--out", help="write the machine JSON here")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("protocol", help="extract a communication transcript")
    p.add_argument("machine")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_protocol)

    p = sub.add_parser("oracle", help="brute-force reference quantities")
    p.add_argument("what", choices=("dcc", "dtdepth"))
    p.add_argument("target", help="matrix file for dcc; function id for dtdepth")
    p.add_argument("--show-tree", action="store_true")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("sweep", help="evaluate a family across side lengths")
    p.add_argument("family", choices=sorted(FAMILIES))
    p.add_argument("--n", required=True, help="comma-separated side lengths")
    p.add_argument("--samples", type=int, default=12,
                   help="members and non-members per n when not exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("fit", help="fit a scaling exponent to a sweep CSV")
    p.add_argument("csv")
    p.add_argument("--logcorrect", action="store_true",
                   help="fit TS / log2(n) instead of TS")
    p.set_defaults(fn=_cmd_fit)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (TwoWayError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
