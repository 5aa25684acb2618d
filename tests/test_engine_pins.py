"""Pinned branch-engine results: sha256 digests of every SegmentRuns field
(run_segments on seeded grover_or and exact_parity words) and of every
CompiledRuns field (compiled grover-ints and exact-parity-lifted rows), so
a change to how the engine merges branches, sums weights or keeps
histories cannot move a bit unseen. A row split across several lane blocks
must give the digest of the same row in one block."""

import hashlib

import numpy as np
import pytest

import twoway.qquery
from twoway.boolfn import and_gadget, ints_language
from twoway.compiler import compile_query_to_qcfa, run_compiled_lanes
from twoway.harness import _pair_bits
from twoway.kernels import oracle_masks
from twoway.qquery import exact_parity, grover_or, run_segments


def digest(runs) -> str:
    """One sha256 over every field of a SegmentRuns or CompiledRuns: its
    name, dtype, shape and bytes."""
    h = hashlib.sha256()
    for name, a in zip(runs._fields, runs):
        a = np.ascontiguousarray(a)
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def seeded_words(n: int, count: int, seed: int) -> np.ndarray:
    """count words of n bits, each drawn at a density picked from none, one
    or four expected ones, 3% and a half: sparse words keep grover_or
    continuing (and merging) through many segments."""
    rng = np.random.default_rng(seed)
    density = rng.choice([0.0, 1.0 / n, 4.0 / n, 0.03, 0.5], size=count)
    return (rng.random((count, n)) < density[:, None]).astype(np.uint8)


def segment_runs(builder, n: int, words: np.ndarray):
    alg = builder(n)
    masks = oracle_masks(words, alg.layout.index_dim)
    return run_segments(alg.tables, alg.initial_state(), masks, alg.layout.work_dim,
                        alg.name, str)


def compiled_runs(builder, n: int):
    """A compiled row's runs: every pair at n = 4, else 6 seeded intersection
    members and 6 non-members (pairs sharing no 1 keep the gadget word 0,
    so grover_or runs its whole schedule)."""
    rep = compile_query_to_qcfa(builder(n), and_gadget(), n)
    xs, ys, xi, yi = _pair_bits(ints_language(n), n, 6, n)
    return run_compiled_lanes(rep, xs[xi], ys[yi])


BUILDERS = {"grover-or": grover_or, "exact-parity": exact_parity,
            "grover-ints": grover_or, "exact-parity-lifted": exact_parity}

SEGMENT_PINS = {
    ("grover-or", 4): "60d8c70d6d4bb443f8b5ed3bfc59fb1135795e02e7ebfca06982be8c4b19da5b",
    ("grover-or", 6): "514b4db2cfdd59d9ec3283ce102a8037240c21f2d47a081b5ad5207964a8b7c2",
    ("grover-or", 16): "b484e29214768db0df8f1e6a1db5dbe48d6ebbbaf879e16278d893ed68d272b5",
    ("grover-or", 64): "8904455cea2162847b62b9825000f93e55f519f5ceb116dff1d96ecff8250f7d",
    ("grover-or", 256): "6ab9df54f0c17e3866808143e1f746d507aa967efa30c9e09da02ed27245b51a",
    ("grover-or", 1024): "f886be8ebcbf83cdeabffae8fbff169e4fa80531240cb95f741189f54d83c562",
    ("exact-parity", 4): "863e5e0a8c8ce439bf51492cd3d4f022661cd10112115364320f676934cb84ca",
    ("exact-parity", 6): "21077b4c949a5e258f674eb282de7b507ab973d1e5396186c1f99599508c3805",
    ("exact-parity", 16): "4543e645a39559f39010e6d516dd93a3bf107a608734959ad65973844f0a9539",
    ("exact-parity", 64): "1fe5de4ea67c621993e913f5a723f6a2dc049742839e7a59b93efb7054fbe700",
    ("exact-parity", 256): "1004d7ca305eb6f7b00e9c8894bce4a9f29b1d2a8d381fa29924be6133b51046",
    ("exact-parity", 1024): "d961fd0b3a0faa4ee25b953a6e1bf22071fbbeddab3c313375887c341f2fb7aa",
}

COMPILED_PINS = {
    ("grover-ints", 4): "8033d9958f16e237edfdf227b03868387d5666206cf62c56f897b8c4b1535988",
    ("grover-ints", 64): "adcaa319648e4355d30e35201bd7744ccd52f0ebbea5dccf972fb3a71b053ce6",
    ("grover-ints", 256): "fc15d9db16e54a8aeeb29a36869a6cd064d2ff56b17f1ddd64b2c68c15bf80c7",
    ("grover-ints", 1024): "99269c3c319202f2cfa7038c54a15e850f85be6a9918e6082d1625b98f7c5703",
    ("exact-parity-lifted", 4): "eae8425b04dbbe466c44184f14d57f36b13586db51e6c5f791fd6eaa250ab182",
    ("exact-parity-lifted", 64): "857c87a11439e36e477bca79a8cf711a04848d7717f388b60dc63a77c2504330",
    ("exact-parity-lifted", 512): "145f2882cab46d476977898d9c32c88ba0a8bdc420ac28d51499ce9ca21648be",
}


@pytest.mark.parametrize("family, n", SEGMENT_PINS)
def test_segment_runs_are_pinned(family, n):
    runs = segment_runs(BUILDERS[family], n, seeded_words(n, 16, n))
    assert digest(runs) == SEGMENT_PINS[family, n]


@pytest.mark.parametrize("family, n", COMPILED_PINS)
def test_compiled_runs_are_pinned(family, n):
    assert digest(compiled_runs(BUILDERS[family], n)) == COMPILED_PINS[family, n]


@pytest.mark.parametrize("family, n", [("grover-or", 64), ("exact-parity", 64)])
def test_segment_runs_split_across_blocks_keep_their_pin(monkeypatch, family, n):
    alg = BUILDERS[family](n)
    monkeypatch.setattr(twoway.qquery, "LANE_CELLS", 3 * alg.layout.dim)   # 6 blocks
    runs = segment_runs(BUILDERS[family], n, seeded_words(n, 16, n))
    assert digest(runs) == SEGMENT_PINS[family, n]


def test_compiled_row_split_across_blocks_keeps_its_pin(monkeypatch):
    monkeypatch.setattr(twoway.qquery, "LANE_CELLS", 5 * grover_or(64).layout.dim)  # 3 blocks
    assert digest(compiled_runs(grover_or, 64)) == COMPILED_PINS["grover-ints", 64]
