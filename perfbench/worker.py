"""One measurement in a fresh process; prints one JSON object.

    python3 perfbench/worker.py '<json request>'

Requests: {"mode": "setup", "workload": {...}} times importing twoway and
building every machine of the workload. {"mode": "round", "workload": {...},
"pool_seed": s, "trace": bool, "spans_out": path-or-null} runs one round,
timed, optionally under the tracer. Nothing but the standard library is
imported before the set-up timer starts.
"""

import contextlib
import gc
import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def do_setup(req: dict) -> dict:
    t0 = time.perf_counter()
    import twoway  # timed: part of set-up
    import workloads
    workloads.setup(workloads.Workload.from_dict(req["workload"]))
    return {"setup_s": time.perf_counter() - t0, "twoway_file": twoway.__file__}


def do_round(req: dict) -> dict:
    import twoway
    import workloads
    import tracer

    w = workloads.Workload.from_dict(req["workload"])
    pool_seed = req["pool_seed"]
    inputs = workloads.round_machine_inputs(w, pool_seed)
    tr = tracer.Tracer() if req["trace"] else None
    gc.collect()
    with tracer.Hooks(tr) if tr else contextlib.nullcontext() as hooks:
        t0 = time.perf_counter()
        if tr:
            tr.enter(tracer.ROOT_LAYER)
        result = workloads.run_round(w, pool_seed, inputs)
        if tr:
            tr.exit()
        wall = time.perf_counter() - t0
    out = {
        "wall_s": wall,
        "inputs": workloads.round_inputs(w),
        "peak_rss_mb": _peak_rss_mb(),
        "backend": getattr(twoway, "KERNEL_BACKEND", "absent"),
        "twoway_file": twoway.__file__,
        "result": result,
    }
    if tr:
        out["trace"] = {
            "self_s": dict(tr.self_s),
            "total_s": dict(tr.total_s),
            "counts": dict(tr.counts),
            "spans": len(tr.spans),
            "missing": hooks.missing,
        }
        if req.get("spans_out"):
            tr.write(req["spans_out"])
    return out


def main(argv) -> int:
    req = json.loads(argv[1])
    out = do_setup(req) if req["mode"] == "setup" else do_round(req)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
