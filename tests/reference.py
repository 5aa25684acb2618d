"""Independent references for the branch engine.

reference_accept evolves one density matrix per segment (Nielsen and
Chuang 2000, ch. 8), sharing nothing with the engine's stacks, merge keys,
pruning or renormalisation. sequential_accept applies the engine's own
rule one outcome at a time in plain Python, as the order oracle for its
array sums.

In reference_accept, a segment's matrix is the sum of every branch that
enters it, unnormalised: each unitary acts as U rho U^dagger on its dense
matrix, each oracle call as the basis permutation |i, b, w> -> |i, b xor
z_i, w>, and the measurement splits rho into one block P rho P per label.
An accepting block adds its trace to the result, a rejecting one is
dropped, and a continuing one is swapped by its reset and added to the
target segment's matrix. Nothing is pruned or merged, so the result is
exact up to float rounding.
"""

import numpy as np

from twoway.ops import BRANCH_PRUNE
from twoway.qquery import KIND_ACCEPT, KIND_CONTINUE, QueryAlgorithm


def oracle_permutation(alg: QueryAlgorithm, z: str) -> np.ndarray:
    """The basis permutation of one oracle call on input word z."""
    layout = alg.layout
    perm = np.arange(layout.dim)
    for i, bit in enumerate(z):
        if bit == "1":
            for w in range(layout.work_dim):
                a, b = layout.flat(i, 0, w), layout.flat(i, 1, w)
                perm[a], perm[b] = b, a
    return perm


def groups(measurement) -> list:
    """The basis indices of each label's outcome, in label order."""
    return [np.array([label]) if measurement.outcomes is None else measurement.outcomes[label]
            for label in measurement.labels()]


def reference_accept(alg: QueryAlgorithm, z: str) -> float:
    """The acceptance probability of alg on input word z (a bit string)."""
    dim = alg.layout.dim
    perm = oracle_permutation(alg, z)
    rho = [np.zeros((dim, dim), dtype=np.complex128) for _ in alg.segments]
    psi0 = alg.initial_state()
    rho[0] = np.outer(psi0, psi0.conj())
    accept = 0.0
    for s, (seg, rows) in enumerate(zip(alg.segments, alg.decisions)):
        r = rho[s]
        for ui, op in enumerate(seg.unitaries):
            if ui:
                r = r[perm][:, perm]
            u = op.to_dense()
            r = u @ r @ u.conj().T
        for j, group in enumerate(groups(seg.measurement)):
            block = np.zeros_like(r)
            block[np.ix_(group, group)] = r[np.ix_(group, group)]
            if rows.kind[j] == KIND_ACCEPT:
                accept += np.trace(block).real
            elif rows.kind[j] == KIND_CONTINUE:
                a, b = rows.swap[j].tolist()
                if a >= 0:
                    swap = np.arange(dim)
                    swap[a], swap[b] = b, a
                    block = block[swap][:, swap]
                rho[rows.next_segment[j]] += block
    return float(accept)


def sequential_accept(alg: QueryAlgorithm, z: str) -> float:
    """The acceptance probability of alg on input word z by the branch
    engine's rule, one outcome at a time: per segment, its branches in the
    order they were created and each branch's outcomes in label order. An
    outcome of probability at most BRANCH_PRUNE, or of weight below it, is
    dropped; an accepting weight is added to a plain float; a continuing
    outcome is collapsed, reset, and merged into the target segment's
    branch with the bitwise-equal state, its weight added to that one's."""
    perm = oracle_permutation(alg, z)
    pending = [{} for _ in alg.segments]
    pending[0][b""] = [1.0, alg.initial_state()]
    accept = 0.0
    for s, (seg, rows) in enumerate(zip(alg.segments, alg.decisions)):
        for weight, psi in pending[s].values():
            psi = psi.copy()
            for ui, op in enumerate(seg.unitaries):
                if ui:
                    psi = psi[perm]
                psi = op.apply(psi)
            w2 = np.abs(psi) ** 2
            for j, group in enumerate(groups(seg.measurement)):
                p = float(w2[group].sum())
                if p <= BRANCH_PRUNE or weight * p < BRANCH_PRUNE:
                    continue
                if rows.kind[j] == KIND_ACCEPT:
                    accept += weight * p
                elif rows.kind[j] == KIND_CONTINUE:
                    state = np.zeros_like(psi)
                    state[group] = psi[group] / np.sqrt(p)
                    a, b = rows.swap[j].tolist()
                    if a >= 0:
                        state[[a, b]] = state[[b, a]]
                    slot = pending[rows.next_segment[j]].setdefault(state.tobytes(), [0.0, state])
                    slot[0] += weight * p
    return min(accept, 1.0)
