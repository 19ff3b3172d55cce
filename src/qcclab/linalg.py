"""Linear algebra over GF(p) on numpy integer arrays.

`rref` and the solvers and kernel built on it eliminate densely; the
minimal span passes (`distinct_starts`, `shorten_ends`) reduce rows only
by rows that share their start or their end column, so banded input stays
banded."""

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
        inv = pow(int(R[r, c]), p - 2, p)
        if inv != 1:
            R[r] = R[r] * inv % p
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
    """Basis of the right null space {x : M x = 0}, one vector per row:
    vector i is the i-th free column's unit vector less, on the pivot
    columns, that column of the reduced form of M."""
    M = _as_matrix(M)
    cols = M.shape[1]
    R, pivots = rref(M, p)
    free = np.flatnonzero(np.bincount(pivots, minlength=cols) == 0)
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -R[:, free].T % p
    return basis


def minimal_span_basis(vectors, p: int) -> np.ndarray:
    """Row-equivalent basis in minimal span form, rows sorted by start,
    each with first nonzero entry 1.

    Two passes (Kschischang and Sorokine): `distinct_starts` makes the
    starts distinct; then, after each row is scaled to a leading 1,
    `shorten_ends` makes the ends distinct. Distinct starts and distinct
    ends characterise minimal span form, which minimises the trellis state
    complexity over the given column order. Both passes only shorten rows,
    so banded rows stay banded. Zero rows are dropped; dependent rows raise
    ValueError."""
    M = _as_matrix(vectors) % p
    M = M[M.any(axis=1)]
    R = distinct_starts(M, p)
    if len(R) < len(M):
        raise ValueError("dependent rows in minimal span reduction")
    lead = R[np.arange(len(R)), (R != 0).argmax(axis=1)]
    inv = np.array([pow(int(a), p - 2, p) for a in lead], dtype=np.int64)
    return shorten_ends(R * inv[:, None] % p, p)


def shorten_ends(R, p: int) -> np.ndarray:
    """The second pass of `minimal_span_basis` on nonzero rows with distinct
    starts, sorted by start (the output of `distinct_starts`): right to left
    over the columns, every other row that ends in the column is reduced by
    the row ending there with the latest start, which moves its end left and
    never moves a start or changes a leading entry. Returns a new array."""
    R = _as_matrix(R) % p
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


def distinct_starts(M, p: int) -> np.ndarray:
    """A basis of the row space of M whose rows start at distinct columns,
    sorted by start, with zero rows dropped; the mirror of `shorten_ends`.
    Left to right over the columns that rows share as their start, every
    other row that starts in the column is reduced by the row starting
    there with the earliest end, which moves its start right and never
    moves an end right, so short rows stay short. Returns a new array."""
    R = _as_matrix(M) % p
    R = R[R.any(axis=1)]
    cols = R.shape[1]
    starts = (R != 0).argmax(axis=1)
    ends = cols - 1 - (R[:, ::-1] != 0).argmax(axis=1)
    while True:
        # the first column where rows share a start; reductions only move
        # starts right, so no column left of it is shared again
        shared = np.flatnonzero(np.bincount(starts, minlength=cols + 1)[:cols] > 1)
        if not len(shared):
            break
        c = shared[0]
        group = np.flatnonzero(starts == c)
        ref = group[ends[group].argmin()]
        rest = group[group != ref]
        scale = R[rest, c] * pow(int(R[ref, c]), p - 2, p) % p
        R[rest] = (R[rest] - scale[:, None] * R[ref]) % p
        nz = R[rest] != 0
        # a row reduced to 0 starts past the last column and is dropped
        starts[rest] = np.where(nz.any(axis=1), nz.argmax(axis=1), cols)
        ends[rest] = cols - 1 - nz[:, ::-1].argmax(axis=1)
    keep = np.flatnonzero(starts < cols)
    return R[keep[np.argsort(starts[keep])]]


def _last_needed(C: np.ndarray, b: np.ndarray, p: int) -> int | None:
    """The least j such that b lies in the span of columns 0..j of C; -1
    when b is 0, and None when b is not in the span of C.

    In the reduced form of [C | b], b is the combination of the pivot
    columns that its entries select, so it needs exactly the columns up to
    the last pivot with a nonzero entry in b's column."""
    R, pivots = rref(np.column_stack([C, b]), p)
    if pivots and pivots[-1] == C.shape[1]:
        return None
    return max((c for c, coeff in zip(pivots, R[:, -1]) if coeff), default=-1)


def _live_rows(C: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of C x = b that may constrain x, those nonzero in C or in
    b; the others are 0 = 0 and leave every reduced form as it is."""
    live = C.any(axis=1) | (b != 0)
    return C[live], b[live]


def solve_localized(M, b, p: int, center: int, halfwidth: int) -> np.ndarray:
    """Solution of M v = b supported on a narrow contiguous column window.

    Widens a window around `center` until the restricted system becomes
    consistent, then moves its left edge right as far as b stays in the
    span of the window's columns, never below one column, and solves on
    what is left. Spans of nested windows are nested, so one elimination
    over the window's columns in reverse order both tests consistency and
    places the left edge (`_last_needed`). The right edge needs no trim:
    the reduced-form solution already vanishes past the last column that b
    needs, so trimming there would not change it. Each elimination sees
    only the rows that are nonzero in the window or in b, few when M is
    banded. The result is a compact, deterministic representative of the
    solution coset."""
    M = np.asarray(M, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    cols = M.shape[1]
    hw = halfwidth
    while True:
        lo, hi = max(0, center - hw), min(cols, center + hw)
        last = _last_needed(*_live_rows(M[:, lo:hi][:, ::-1], b), p)
        if last is not None:
            break
        if lo == 0 and hi == cols:
            raise AssertionError("linear system unexpectedly inconsistent")
        hw *= 2
    lo = hi - 1 - max(last, 0)
    out = np.zeros(cols, dtype=np.int64)
    out[lo:hi] = solve(*_live_rows(M[:, lo:hi], b), p)
    return out
