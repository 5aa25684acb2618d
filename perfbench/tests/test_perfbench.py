"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import checks
import run
import tracer
import workloads

TINY = workloads.Workload(
    "tiny",
    sweeps=(("grover-ints", (2,), 1), ("exact-parity-lifted", (2,), 1),
            ("eq-dfa", (2, 9), 2), ("eq-pfa", (2, 9), 2)),
    samplers=(("eq-pfa:3", 16), ("grover-or:2", 16), ("exact-parity:2", 16)),
    exact=(("eq-pfa:3", 4), ("grover-or:2", 4), ("exact-parity:2", 4)),
)
SEED = 5


@pytest.fixture(scope="module")
def tiny():
    wdict = dataclasses.asdict(TINY)
    reference = run.record_reference(wdict, run.pool_order(SEED)[:1])
    return wdict, reference


def result_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_name_and_unit(tiny, trace, capsys):
    wdict, reference = tiny
    report = run.run(wdict, SEED, 0.0, trace, reference)
    run.emit(report)
    out = capsys.readouterr().out
    expected = run.per_layer_metrics() if trace else list(run.END_TO_END)
    lines = {ln.split()[0]: ln.split() for ln in out.splitlines()[:-1] if ln.strip()}
    result = result_line(out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert sorted(result["metrics"]) == sorted(name for name, _ in expected)
    for name, unit in expected:
        assert result["metrics"][name]["unit"] == unit
        assert lines[name][2] == unit
    assert "failed_frac" in lines


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_traced_runs_repeat_their_counts(tiny):
    wdict, reference = tiny
    counts = []
    for _ in range(2):
        report = run.run(wdict, SEED, 0.0, True, reference)
        counts.append({k: v for k, v in report["metrics"].items()
                       if k.endswith((".calls", ".steps", ".outcomes", ".bytes", ".branches"))
                       or k == "trace.spans"})
    assert counts[0] == counts[1]
    assert counts[0]["kernels.segment_pass.calls"] > 0
    assert counts[0]["automata.run_dfa.steps"] > 0


def test_hooks_are_restored_after_tracing():
    originals = {}
    for dotted, *_ in tracer.HOOKS:
        owner, attr = tracer.resolve(dotted)
        originals[dotted] = (owner, attr, vars(owner)[attr])
    w = TINY
    inputs = workloads.round_machine_inputs(w, 0)
    tr = tracer.Tracer()
    with tracer.Hooks(tr, tracer.HOOKS + (("twoway.no_such_name", "x.y", "call", None),)) as hooks:
        for owner, attr, original in originals.values():
            assert vars(owner)[attr] is not original
        tr.enter(tracer.ROOT_LAYER)
        workloads.run_round(w, 0, inputs)
        tr.exit()
    assert hooks.missing == ["twoway.no_such_name"]
    for owner, attr, original in originals.values():
        assert vars(owner)[attr] is original
    # self times add up to the root span
    assert sum(tr.self_s.values()) == pytest.approx(tr.total_s[tracer.ROOT_LAYER], rel=1e-9)


def test_a_wrong_row_fails_its_check(tiny):
    wdict, reference = tiny
    rows = next(iter(reference.values()))
    bad = [dict(r) for r in rows]
    bad[0]["T"] += 1
    assert not all(ok for _, ok, _ in checks.check_rows(rows, bad))
    assert all(ok for _, ok, _ in checks.check_rows(rows, rows))
    assert not checks.check_rows(rows, None)[0][1]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "walkers", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
