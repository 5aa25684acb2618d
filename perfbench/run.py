"""twoway benchmark: sweep throughput on four workloads, per-layer self time
from a separate traced run.

    python3 perfbench/run.py --workload ints-sweep --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --record-reference [--workload NAME]

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. Every measurement happens in a
fresh worker process (perfbench/worker.py):

- set-up: import twoway and build every machine the workload uses, once
  before each of the first 5 rounds (at least 3 times), reported as the
  median (``setup_s``);
- rounds: one full pass over the workload each, repeated until the rounds'
  time would exceed ``--seconds`` (at least one); ``wall_s`` is the median
  round and ``inputs_per_s`` the round's inputs over it; ``peak_rss_mb`` is
  the largest ``ru_maxrss`` of a round process.

With ``--trace 1`` the run alternates untraced and traced rounds on the same
inputs and reports per-layer counts and self times from the traced round of
median wall time, plus the tracing overhead (median traced round over median
untraced round).

Round inputs come from a pool of POOL sweep seeds; ``--seed`` picks the
order in which the run visits them, and the reference rows for every pool
seed were recorded with ``--record-reference``. Correctness checks run after
the timed rounds (see checks.py). The last line of output is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

POOL = 16                    # sweep seeds with recorded reference rows
MIN_SETUPS = 3
MAX_SETUPS = 5
WORKERS_LIMIT_S = 150        # all workers of one run end within this
BLAS_THREADS = "1"           # one compute thread; nproc is the ceiling

END_TO_END = (
    ("inputs_per_s", "1/s"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# per layer: the counters reported besides calls and self_s
LAYERS = (
    ("kernels.segment_pass", ("bytes",)),
    ("ops.measure", ("outcomes",)),
    ("ops.lifted_apply", ()),
    ("ops.check_unitary", ()),
    ("qquery.validate_algorithm", ()),
    ("compiler.compile", ()),
    ("compiler.run_compiled", ()),
    ("automata.run_dfa", ("steps", "steps_per_s")),
    ("automata.run_pfa_sample", ("steps", "steps_per_s")),
    ("automata.qcfa_sample", ("steps", "steps_per_s")),
    ("automata.pfa_exact", ()),
    ("automata.qcfa_exact", ()),
    ("harness.sweep_ts", ()),
    ("harness.certificate_check", ()),
    ("commlab.owner_walk", ()),
    ("boolfn.value", ()),
    ("handcrafted.build", ()),
)
UNITS = {"calls": "count", "self_s": "s", "bytes": "B-computed",
         "outcomes": "count", "steps": "count", "steps_per_s": "1/s"}
TRACE_METRICS = (
    ("compiler.branches", "count"),
    ("compiler.halting_per_outcome", "ratio"),
    ("bench.round.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_sum_frac", "ratio"),
    ("trace.spans", "count"),
)


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, extra in LAYERS:
        for m in ("calls", "self_s") + extra:
            out.append((f"{layer}.{m}", UNITS[m]))
    return out + list(TRACE_METRICS)


# --- worker processes ----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(req: dict, timeout: float = WORKERS_LIMIT_S) -> dict:
    """Run one worker request; raises RuntimeError when it fails."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(req)],
            env=child_env(), capture_output=True, text=True,
            timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker timed out after {exc.timeout} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RuntimeError(f"worker exited {proc.returncode}: {' | '.join(tail)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    out = json.loads(lines[-1])
    if "twoway_file" in out and not Path(out["twoway_file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"worker imported twoway from {out['twoway_file']}")
    return out


def setup_request(wdict) -> dict:
    return {"mode": "setup", "workload": wdict}


def round_request(wdict, pool_seed, trace, spans_out=None) -> dict:
    return {"mode": "round", "workload": wdict, "pool_seed": pool_seed,
            "trace": trace, "spans_out": spans_out}


def measure(groups, seconds: float, deadline: float) -> tuple:
    """Run groups of requests from the iterator until the next group's rounds
    would overrun `seconds` of round time (judged by the median so far); at
    least one group runs, and set-up requests do not count against the time.
    No worker outlives `deadline` (a time.monotonic() value). Returns
    (outputs, errors): (request, output) pairs, and one message per failed
    request."""
    outputs, errors, costs = [], [], []
    for group in groups:
        cost = 0.0
        for req in group:
            t0 = time.perf_counter()
            try:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise RuntimeError("no time left in this run")
                outputs.append((req, run_worker(req, left)))
            except (RuntimeError, ValueError) as exc:
                errors.append(f"{req['mode']} (pool seed {req.get('pool_seed')}): {exc}")
            if req["mode"] == "round":
                cost += time.perf_counter() - t0
        costs.append(cost)
        if sum(costs) + statistics.median(costs) > seconds or time.monotonic() > deadline:
            break
    return outputs, errors


# --- environment ---------------------------------------------------------------


def git_sha() -> str:
    """HEAD of a git checkout at ROOT, read from the files; 'unknown' when
    ROOT is not a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "twoway").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(backend: str) -> dict:
    import numpy
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "kernel_backend": backend,
    }


# --- metrics -------------------------------------------------------------------


def end_to_end(outputs, setups) -> dict:
    wall = statistics.median(o["wall_s"] for _, o in outputs)
    return {
        "inputs_per_s": outputs[0][1]["inputs"] / wall,
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(o["peak_rss_mb"] for _, o in outputs),
    }


def layer_metrics(traced: list, untraced: list) -> tuple:
    """Per-layer metrics from the traced round of median wall time (the
    lower middle one), and the names whose hooks did not resolve."""
    import tracer

    traced = sorted(traced, key=lambda o: o["wall_s"])
    pick = traced[(len(traced) - 1) // 2]["trace"]
    self_s, total_s, counts = pick["self_s"], pick["total_s"], pick["counts"]
    gone = tracer.missing_layers(pick["missing"])
    m = {}
    for layer, extra in LAYERS:
        if layer in gone:
            continue
        m[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
        for name in extra:
            if name == "steps_per_s":
                t = total_s.get(layer, 0.0)
                m[f"{layer}.steps_per_s"] = counts.get(f"{layer}.steps", 0) / t if t else 0.0
            else:
                m[f"{layer}.{name}"] = counts.get(f"{layer}.{name}", 0)
    outcomes = counts.get("ops.measure.outcomes", 0)
    branches = counts.get("compiler.branches", 0)
    if "compiler.run_compiled" not in gone:
        m["compiler.branches"] = branches
        if "ops.measure" not in gone:
            m["compiler.halting_per_outcome"] = branches / outcomes if outcomes else 0.0
    t_wall = statistics.median(o["wall_s"] for o in traced)
    u_wall = statistics.median(o["wall_s"] for o in untraced)
    root = total_s[tracer.ROOT_LAYER]
    m["bench.round.self_s"] = self_s[tracer.ROOT_LAYER]
    m["trace.wall_s"] = t_wall
    m["trace.untraced_wall_s"] = u_wall
    m["trace.overhead_frac"] = t_wall / u_wall - 1.0
    m["trace.self_sum_frac"] = sum(self_s.values()) / root
    m["trace.spans"] = pick["spans"]
    return m, sorted(pick["missing"])


# --- reference -----------------------------------------------------------------


def load_reference(name: str) -> dict:
    path = REFERENCE / f"{name}.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def record_reference(wdict: dict, pool_seeds) -> dict:
    """Sweep rows of one workload for each pool seed."""
    rows = {}
    for pool_seed in pool_seeds:
        out = run_worker(round_request(wdict, pool_seed, False))
        rows[str(pool_seed)] = [
            {k: v for k, v in row.items() if not k.startswith("worst_")}
            for row in out["result"]["rows"]]
        print(f"{wdict['name']} pool seed {pool_seed}: {out['wall_s']:.3f} s", flush=True)
    return rows


# --- main ----------------------------------------------------------------------


def pool_order(seed: int) -> list:
    """The order in which a run visits the pool seeds."""
    order = list(range(POOL))
    random.Random(seed).shuffle(order)
    return order


def run(wdict: dict, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """One benchmark run; returns everything the report prints."""
    order = pool_order(seed)
    tag = f"{wdict['name']}-seed{seed}-trace{int(trace)}"
    deadline = time.monotonic() + WORKERS_LIMIT_S
    if trace:
        OUT.mkdir(exist_ok=True)
        # untraced and traced rounds in pairs on the same inputs
        groups = ([round_request(wdict, order[0], False),
                   round_request(wdict, order[0], True, str(OUT / f"spans-{tag}-{i}.json.gz"))]
                  for i in itertools.count())
        outputs, errors = measure(groups, seconds, deadline)
    else:
        # a set-up before each of the first rounds spreads them over the run
        groups = ([setup_request(wdict)] * (i < MAX_SETUPS)
                  + [round_request(wdict, order[i % POOL], False)]
                  for i in itertools.count())
        outputs, errors = measure(groups, seconds, deadline)
        while sum(req["mode"] == "setup" for req, _ in outputs) < MIN_SETUPS:
            more, errs = measure(iter([[setup_request(wdict)]]), 0, deadline)
            outputs += more
            errors += errs
            if errs:
                break
    setups = [o["setup_s"] for req, o in outputs if req["mode"] == "setup"]
    outputs = [(req, o) for req, o in outputs if req["mode"] == "round"]

    import checks
    results = [("error", False, e) for e in errors]
    for req, out in outputs:
        ref = reference.get(str(req["pool_seed"]))
        try:
            results += checks.check_round(out["result"], ref)
        except Exception as exc:  # a raised exception counts as a failed check
            results.append(("check raised", False, f"{type(exc).__name__}: {exc}"))
    failed = [r for r in results if not r[1]]

    report = {
        "workload": wdict["name"], "seed": seed, "trace": trace,
        "pool_seeds": [req["pool_seed"] for req, _ in outputs],
        "attempted": len(results), "failed": len(failed),
        "failures": [f"{n}: {d}" for n, _, d in failed[:50]],
        "rounds": [{"pool_seed": req["pool_seed"], "trace": req["trace"],
                    "wall_s": o["wall_s"], "peak_rss_mb": o["peak_rss_mb"]}
                   for req, o in outputs],
        "setups_s": setups,
        "env": environment(outputs[0][1]["backend"] if outputs else "unknown"),
        "metrics": {}, "missing": [],
    }
    if outputs and trace:
        traced = [o for req, o in outputs if req["trace"]]
        untraced = [o for req, o in outputs if not req["trace"]]
        if traced and untraced:
            report["metrics"], report["missing"] = layer_metrics(traced, untraced)
    elif outputs:
        report["metrics"] = end_to_end(outputs, setups)
    return report


def emit(report: dict) -> None:
    """Print every metric as `name value unit`, the checks, and last the
    result object."""
    units = dict(END_TO_END) | dict(per_layer_metrics())
    env = report["env"]
    print(f"perfbench {report['workload']} seed={report['seed']} trace={int(report['trace'])}"
          f" rounds={len(report['rounds'])} pool_seeds={report['pool_seeds']}")
    print("env " + json.dumps(env, sort_keys=True))
    walls = [r["wall_s"] for r in report["rounds"]]
    print("round_walls_s " + " ".join(f"{w:.3f}" for w in walls)
          + f" (median {statistics.median(walls):.3f})")
    for name, value in report["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    frac = report["failed"] / report["attempted"] if report["attempted"] else 1.0
    print(f"failed_frac {frac:.6g} ratio ({report['failed']} of {report['attempted']} checks)")
    for name in report["missing"]:
        print(f"missing hook {name}: its layer metrics are not reported")
    for line in report["failures"]:
        print(f"FAILED {line}")
    metrics = {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()}
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "twoway" / "__init__.py").is_file():
        print(f"perfbench: no twoway package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.record_reference:
        REFERENCE.mkdir(exist_ok=True)
        for name in [args.workload] if args.workload else list(workloads.WORKLOADS):
            rows = record_reference(dataclasses.asdict(workloads.WORKLOADS[name]), range(POOL))
            (REFERENCE / f"{name}.json").write_text(json.dumps(rows, indent=1) + "\n")
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")

    wdict = dataclasses.asdict(workloads.WORKLOADS[args.workload])
    report = run(wdict, args.seed, args.seconds, bool(args.trace),
                 load_reference(args.workload))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")
    if not report["metrics"]:
        for line in report["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
        print("perfbench: no round completed", file=sys.stderr)
        return 1
    emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
