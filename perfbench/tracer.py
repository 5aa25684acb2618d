"""In-memory span tracer and the hooks that attach it to the twoway package.

A span is (name, start, end, parent). Spans are kept in a list while a round
runs and written out afterwards; self time is a span's duration minus the
time its child spans cover, accumulated as each span closes.

Hooks are resolved by dotted name at the names the program calls through
(for example ``twoway.harness.run_compiled`` rather than the defining
module), so a call made inside the package is seen exactly when the program
makes it. A hook whose name no longer resolves is reported as missing and its
layer metrics are left out; the round still runs.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

_clock = time.perf_counter

ROOT_LAYER = "bench.round"


class Tracer:
    """Stack-based span recorder with per-layer self time and counters."""

    def __init__(self):
        self.spans: list = []          # [name, start, end, parent index]
        self._stack: list = []          # [span index, child time]
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent])
        self._stack.append([len(self.spans) - 1, 0.0])

    def exit(self) -> None:
        end = _clock()
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        dur = end - span[1]
        self.self_s[span[0]] += dur - child
        self.total_s[span[0]] += dur
        if self._stack:
            self._stack[-1][1] += dur

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] += amount

    def write(self, path) -> None:
        """Spans as gzipped JSON: names once, then [name index, start, end,
        parent index] with times in seconds from the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(a - t0, 9), round(b - t0, 9), p]
                for n, a, b, p in self.spans]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


# --- counters recorded at the hook boundaries ----------------------------------


def _count_bytes(tr, layer, args, result):
    tr.count(layer + ".bytes", args[0].nbytes)


def _count_steps(tr, layer, args, result):
    tr.count(layer + ".steps", result.steps)


def _count_branches(tr, layer, args, result):
    tr.count("compiler.branches", result.branch_count)


# (dotted name, layer, kind, counter). Kind "call" times every call; kind
# "gen" times every resumption of a generator and counts what it yields.
HOOKS = (
    ("twoway.compiler.segment_pass", "kernels.segment_pass", "call", _count_bytes),
    ("twoway.compiler.validate_algorithm", "qquery.validate_algorithm", "call", None),
    ("twoway.qquery.check_unitary", "ops.check_unitary", "call", None),
    ("twoway.harness.run_compiled", "compiler.run_compiled", "call", _count_branches),
    ("twoway.harness.run_dfa", "automata.run_dfa", "call", _count_steps),
    ("twoway.harness._owner_walk", "commlab.owner_walk", "call", None),
    ("twoway.harness.compile_query_to_qcfa", "compiler.compile", "call", None),
    ("twoway.harness.certificate_check", "harness.certificate_check", "call", None),
    ("twoway.harness.build_eq_dfa", "handcrafted.build", "call", None),
    ("twoway.handcrafted.build_eq_pfa", "handcrafted.build", "call", None),
    ("twoway.ops.Measurement.branches", "ops.measure", "gen", None),
    ("twoway.ops.CompleteMeasurement.branches", "ops.measure", "gen", None),
    ("twoway.ops.LiftedOp.apply", "ops.lifted_apply", "call", None),
    ("twoway.boolfn.LanguageSpec.value", "boolfn.value", "call", None),
    # names the benchmark's own workload code calls through
    ("twoway.sweep_ts", "harness.sweep_ts", "call", None),
    ("twoway.compile_query_to_qcfa", "compiler.compile", "call", None),
    ("twoway.build_eq_pfa", "handcrafted.build", "call", None),
    ("twoway.run_pfa_sample", "automata.run_pfa_sample", "call", _count_steps),
    ("twoway.qcfa_sample", "automata.qcfa_sample", "call", _count_steps),
    ("twoway.pfa_exact", "automata.pfa_exact", "call", None),
    ("twoway.qcfa_exact", "automata.qcfa_exact", "call", None),
)


def resolve(dotted: str):
    """(owner, attribute) for a dotted name, or None when it does not resolve.

    The longest importable module prefix is the start; the remaining parts
    are attributes, the last of which must be set on its owner itself (a
    method inherited from a base class is not this name's own)."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:-1]:
                owner = getattr(owner, attr)
        except AttributeError:
            return None
        if parts[-1] not in vars(owner):
            return None
        return owner, parts[-1]
    return None


def _wrap_call(tr, layer, fn, counter):
    def traced(*args, **kwargs):
        tr.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.exit()
        tr.count(layer + ".calls")
        if counter is not None:
            counter(tr, layer, args, result)
        return result
    return traced


def _wrap_gen(tr, layer, fn):
    def traced(*args, **kwargs):
        tr.count(layer + ".calls")
        tr.enter(layer)
        try:
            gen = fn(*args, **kwargs)
        finally:
            tr.exit()
        while True:
            tr.enter(layer)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tr.exit()
            tr.count(layer + ".outcomes")
            yield item
    return traced


class Hooks:
    """Context manager installing every resolvable hook for one tracer and
    restoring the original objects on exit."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self.patched: list = []          # (owner, attribute, original)
        self.missing: list = []

    def __enter__(self):
        for dotted, layer, kind, counter in self.hooks:
            found = resolve(dotted)
            if found is None:
                self.missing.append(dotted)
                continue
            owner, attr = found
            original = vars(owner)[attr]
            if kind == "gen":
                wrapped = _wrap_gen(self.tracer, layer, original)
            else:
                wrapped = _wrap_call(self.tracer, layer, original, counter)
            setattr(owner, attr, wrapped)
            self.patched.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self.patched:
            owner, attr, original = self.patched.pop()
            setattr(owner, attr, original)
        return False


def missing_layers(missing) -> set:
    """Layers with a hook that did not resolve: their metrics would be
    incomplete, so they are reported as missing."""
    return {layer for dotted, layer, _, _ in HOOKS if dotted in missing}
