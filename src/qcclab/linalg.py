"""Dense linear algebra over GF(p) on numpy integer arrays."""

from __future__ import annotations

import numpy as np


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=np.int64)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    return M


def rref(M, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (R, pivot column list)."""
    R = _as_matrix(M) % p
    rows, cols = R.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        # any row with a nonzero entry will do: the reduced form is unique
        sel = r + int(R[r:, c].argmax())
        if not R[sel, c]:
            continue
        if sel != r:
            R[[r, sel]] = R[[sel, r]]
        R[r] = R[r] * pow(int(R[r, c]), p - 2, p) % p
        factor = R[:, c].copy()
        factor[r] = 0
        R -= factor[:, None] * R[r]
        R %= p
        pivots.append(c)
        r += 1
    return R[: len(pivots)], pivots


def rank(M, p: int) -> int:
    return len(rref(M, p)[1])


def solve(M, b, p: int) -> np.ndarray | None:
    """One solution of M x = b mod p, or None if inconsistent.

    `b` is a vector or a matrix with one right-hand side per column; a
    matrix gives a matrix x, from one elimination, and None if any column
    is inconsistent."""
    M = _as_matrix(M)
    b = np.asarray(b, dtype=np.int64) % p
    rhs = b[:, None] if b.ndim == 1 else b
    n = M.shape[1]
    R, pivots = rref(np.concatenate([M % p, rhs], axis=1), p)
    if len(pivots) and pivots[-1] >= n:
        return None
    x = np.zeros((n, rhs.shape[1]), dtype=np.int64)
    x[pivots] = R[:, n:]
    return x.reshape((n,) + b.shape[1:])


def kernel(M, p: int) -> np.ndarray:
    """Basis of the right null space {x : M x = 0}, one vector per row."""
    M = _as_matrix(M)
    cols = M.shape[1]
    R, pivots = rref(M, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for r, c in enumerate(pivots):
            basis[i, c] = (-R[r, f]) % p
    return basis


def in_rowspan(v, M, p: int) -> bool:
    """True iff v is a GF(p) combination of the rows of M."""
    M = _as_matrix(M)
    return solve(M.T, np.asarray(v, dtype=np.int64), p) is not None


def minimal_span_basis(vectors, p: int) -> np.ndarray:
    """Row-equivalent basis in minimal span form, rows sorted by start.

    Two passes (Kschischang and Sorokine): `rref` makes the starts
    distinct; then, right to left over the columns, every other row that
    ends in the column is reduced by the row ending there with the latest
    start, which moves its end left and never moves a start. Distinct
    starts and distinct ends characterise minimal span form, which
    minimises the trellis state complexity over the given column order.
    Zero rows are dropped; dependent rows raise ValueError."""
    M = _as_matrix(vectors) % p
    M = M[M.any(axis=1)]
    R, pivots = rref(M, p)
    if len(pivots) < len(M):
        raise ValueError("dependent rows in minimal span reduction")
    cols = R.shape[1]
    ends = cols - 1 - (R[:, ::-1] != 0).argmax(axis=1)
    for c in range(cols - 1, -1, -1):
        group = np.flatnonzero(ends == c)
        if len(group) < 2:
            continue
        # rows are in start order, so the last of the group starts latest
        ref, rest = group[-1], group[:-1]
        scale = R[rest, c] * pow(int(R[ref, c]), p - 2, p) % p
        R[rest] = (R[rest] - scale[:, None] * R[ref]) % p
        ends[rest] = cols - 1 - (R[rest, ::-1] != 0).argmax(axis=1)
    return R
