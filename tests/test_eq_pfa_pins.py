"""Pinned `eq-pfa` sweep rows: sha256 digests of every `SweepRow` field but
the wall time, and of the CSV that `twoway sweep eq-pfa` writes, so a change
to how the fingerprint census is computed cannot move a row unseen."""

import hashlib
from dataclasses import fields

import pytest

from twoway.cli import main
from twoway.harness import sweep_ts

# exhaustive through n=8, sampled beyond; one word of 32 y steps below, at
# and past 32; the n=256 row at the benchmark's size and n=257, the first
# side length with primes above 2^16
SIDES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 31, 32, 33, 64, 256, 257)

PINS = {
    0: ("e24a076c60b79b576fda2de96b1407f020998c5e45a580ac7f8435db0015362b",
        "4d27193368915adbbfd2d718836bb1f372bd7ca3f11742da6ac413560130b6cc"),
    1: ("2b6ae7632f7d45fe87bd839c5160615db46b6e5099feb469f5a7653a226401c3",
        "15bbf414ba6af5033eb7cbf5b78bae51fefb928038c56333499fbbc25eb9e1b2"),
    7: ("e7066c9a236656cded618fa101e32cba7b2884531c68f6f9b23afe7ebc5ee038",
        "51456adddf57c2161b02ff98e8823ee06d26208d30816b3df6369ca2b723f780"),
}


def row_digest(rows) -> str:
    lines = [repr([getattr(r, f.name) for f in fields(r) if f.name != "wall_seconds"])
             for r in rows]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(PINS))
def test_eq_pfa_rows_and_csv_are_pinned(seed, tmp_path, capsys):
    rows_pin, csv_pin = PINS[seed]
    assert row_digest(sweep_ts("eq-pfa", SIDES, seed=seed)) == rows_pin
    out = tmp_path / "eq-pfa.csv"
    assert main(["sweep", "eq-pfa", "--n", ",".join(map(str, SIDES)),
                 "--seed", str(seed), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_pin
