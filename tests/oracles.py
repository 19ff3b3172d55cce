"""Independent oracles shared by the test modules.

These deliberately avoid the package's own encoding paths: states come
from direct summation over dummy assignments, distances from exhaustive
enumeration.
"""

import itertools

import numpy as np


def closed_form_state(info, N, T):
    """Direct summation of the rate-1/4 closed form (zero history and tail)."""

    def k(i):
        return info[i - 1] if 1 <= i <= T else 0

    amp = np.zeros((N,) * (4 * T), dtype=np.complex128)
    w = np.exp(2j * np.pi / N)
    for dummies in itertools.product(range(N), repeat=2 * T):
        pv = {i + 1: dummies[2 * i] for i in range(T)}
        qv = {i + 1: dummies[2 * i + 1] for i in range(T)}

        def p(i):
            return pv.get(i, 0)

        def q(i):
            return qv.get(i, 0)

        phase = 0
        regs = []
        for i in range(1, T + 1):
            phase += (k(i) + k(i - 2)) * p(i) + (k(i) + k(i - 1) + k(i - 2)) * q(i)
            regs += [
                (p(i) + p(i - 1)) % N,
                (p(i) + p(i - 1) + q(i - 1)) % N,
                (q(i) + q(i - 1)) % N,
                (q(i) + q(i - 1) + p(i)) % N,
            ]
        amp[tuple(regs)] += w**phase
    amp /= np.linalg.norm(amp.ravel())
    return amp


def _coset_batches(stab, target, batch=1 << 14):
    """The full solution coset of a syndrome (particular solution + kernel),
    as batches of (x | z) rows; empty when the syndrome has no solution."""
    from qcclab import linalg

    L, p = stab.L, stab.p
    gen = np.array([g.symplectic() for g in stab.generators], dtype=np.int64)
    gx, gz = gen[:, :L], gen[:, L:]
    syn_map = np.concatenate([gz, (-gx) % p], axis=1)  # rows act on (x | z)
    particular = linalg.solve(syn_map, np.asarray(target, dtype=np.int64), p)
    if particular is None:
        return
    ker = linalg.kernel(syn_map, p)
    dim = len(ker)
    for start in range(0, p**dim, batch):
        idx = np.arange(start, min(start + batch, p**dim))
        digits = np.empty((len(idx), dim), dtype=np.int64)
        rem = idx.copy()
        for j in range(dim):
            digits[:, j] = rem % p
            rem //= p
        yield (digits @ ker + particular) % p if dim else particular[None, :] % p


def _weights(ops, L):
    return ((ops[:, :L] != 0) | (ops[:, L:] != 0)).sum(axis=1)


def min_weight_for_syndrome(stab, target, interior=None):
    """Exhaustive minimum Pauli weight consistent with a syndrome, by
    enumerating the full solution coset (particular solution + kernel)."""
    mins = [int(_weights(ops, stab.L).min()) for ops in _coset_batches(stab, target)]
    return min(mins) if mins else None


def min_weight_lex_correction(stab, target):
    """Exhaustive tie-break oracle: among the minimum-weight operators with
    the syndrome, the one whose register-interleaved tuple
    (x_0, z_0, x_1, z_1, ...) is lexicographically smallest; returns
    (weight, x, z), or None when the syndrome has no solution."""
    L = stab.L
    best = None
    for ops in _coset_batches(stab, target):
        wts = _weights(ops, L)
        keep = ops[wts == wts.min()]
        inter = np.empty_like(keep)
        inter[:, 0::2], inter[:, 1::2] = keep[:, :L], keep[:, L:]
        first = inter[np.lexsort(inter.T[::-1])[0]]
        cand = (int(wts.min()), tuple(int(v) for v in first))
        best = cand if best is None else min(best, cand)
    if best is None:
        return None
    weight, inter = best
    return weight, np.array(inter[0::2]), np.array(inter[1::2])
