"""Quantum convolutional codes from classical parents.

The construction encodes with the parent code, Fourier transforms every
register, and encodes the flattened register stream with the parent again.
On a finite window with zero left history this yields an exact stabilizer
code: writing A for the first (windowed) encoding matrix and B for the
second, codewords are sums over dummy vectors P of w^((Ax).P) |B P>, so

  * Z-type generators are the dual of im(B),
  * X-type generators are B applied to the dual of im(A),
  * the spin flip on qubit i is Z^u with B^T u = A e_i,
  * the phase shift on qubit i is X^(B mu) with A^T mu = -e_i.

All solves are exact GF(p) linear algebra on the window. Each logical is
solved on a narrow column window around its block
(`linalg.solve_localized`). Both encoding matrices are block Toeplitz in
the parent's taps (`encoding_matrix`); `statevec` derives the encoder and
decoder circuits from them.

The generators, pure X or pure Z, come in minimal span form over the
register-interleaved (x_j, z_j) columns, the basis the error trellis
decodes in. Away from the window's edges they are exact shifts of a few
fixed patterns, so the templates are read from the middle block of one
reference window of 4m + 6 blocks, whatever the window (`QccCode.templates`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .convcode import ConvCode, field_symbols
from .gfpoly import CatastrophicityVerdict, catastrophic_check
from .pauli import PauliWindow, StabilizerWindow


class CatastrophicParentError(ValueError):
    """The parent classical code fails the Massey-Sain criterion."""


def _require_non_catastrophic(parent: ConvCode) -> CatastrophicityVerdict:
    verdict = catastrophic_check(parent.G)
    if verdict.is_catastrophic:
        raise CatastrophicParentError(
            "parent encoder is catastrophic; stabilizer supports would be unbounded"
        )
    return verdict


def encoding_matrix(code: ConvCode, n_blocks: int) -> np.ndarray:
    """Windowed encoding matrix: column j is the truncated codeword of the
    j-th unit info symbol, zero history before block 1.

    The matrix is block Toeplitz: the (n x k) block in block row b and
    block column c is the transposed tap matrix of delay b - c, zero
    outside 0 <= b - c <= m."""
    k, n, p = code.k, code.n, code.p
    t = code.taps() % p
    M = np.zeros((n_blocks, n, n_blocks, k), dtype=np.int64)
    for d in range(min(code.m, n_blocks - 1) + 1):
        c = np.arange(n_blocks - d)
        M[c + d, :, c, :] = t[d].T
    return M.reshape(n * n_blocks, k * n_blocks)


def encoding_matrices(code: ConvCode, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """A and B of an n_blocks-block window: A, the `encoding_matrix` of the
    window, takes the info symbols to n * n_blocks dummies, and B, that of
    n * n_blocks / k blocks, takes the flattened dummies to the registers."""
    k, n = code.k, code.n
    if (n * n_blocks) % k:
        raise ValueError(f"{n_blocks} blocks give {n * n_blocks} dummies, not a multiple of k={k}")
    return encoding_matrix(code, n_blocks), encoding_matrix(code, n * n_blocks // k)


def _generator_rows(A: np.ndarray, B: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Bases of the X-type generators (B applied to the dual of im(A)) and
    of the Z-type generators (the dual of im(B)), each in minimal span
    form, rows sorted by start, each with first nonzero entry 1. The
    kernels are dense eliminations; the span reduction of their banded
    rows is not."""
    return (linalg.minimal_span_basis(linalg.kernel(A.T, p) @ B.T, p),
            linalg.minimal_span_basis(linalg.kernel(B.T, p), p))


def _unit(n: int, i: int) -> np.ndarray:
    e = np.zeros(n, dtype=np.int64)
    e[i] = 1
    return e


@dataclass(frozen=True)
class QccCode:
    """Windowed quantum convolutional code built from a classical parent.

    A k-input n-output parent yields k^2 info symbols per n^2 registers;
    window_blocks counts parent info blocks, so the window holds
    k * window_blocks logical qudits on n^2 * window_blocks / k registers.
    """

    parent: ConvCode
    window_blocks: int
    # A and B of `encoding_matrices`: the intermediate registers as a linear
    # map of the info symbols, and the final registers as one of the dummy
    # vector (one dummy per intermediate register, fed flat into the parent)
    first_matrix: np.ndarray = field(init=False, repr=False, compare=False)
    second_matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        delay = _require_non_catastrophic(self.parent).delay
        if delay:
            # the windowed encoding matrices lack full column rank, so some
            # info symbols have no logical operators on the window
            raise ValueError(
                f"parent encoder has delay D^{delay}: its delay-0 taps are not of "
                f"full rank, so the window cannot carry all of its info symbols"
            )
        k, n = self.parent.k, self.parent.n
        if (n * n) % k:
            raise ValueError(
                f"k={k} does not divide n^2={n * n}, so a block of the parent "
                f"has no whole number of registers"
            )
        if self.window_blocks < self.parent.m + 1:
            raise ValueError("window must cover at least m + 1 parent blocks")
        A, B = encoding_matrices(self.parent, self.window_blocks)
        object.__setattr__(self, "first_matrix", A)
        object.__setattr__(self, "second_matrix", B)

    @property
    def N(self) -> int:
        return self.parent.p

    @property
    def k_info(self) -> int:
        """Logical qudits in the window."""
        return self.parent.k * self.window_blocks

    @property
    def regs_per_block(self) -> int:
        """Registers per parent info block (the template shift step)."""
        return self.parent.n**2 // self.parent.k

    @property
    def L(self) -> int:
        return self.regs_per_block * self.window_blocks

    @cached_property
    def stabilizer(self) -> StabilizerWindow:
        """Generators by start over the interleaved columns, 2j for x_j and
        2j + 1 for z_j. X and Z rows never share a start or an end column,
        so each type is reduced alone and the merge is in minimal span form."""
        p = self.N
        x_gens, z_gens = _generator_rows(self.first_matrix, self.second_matrix, p)
        X, Z = np.vstack([x_gens, 0 * z_gens]), np.vstack([0 * x_gens, z_gens])
        starts = 2 * (X + Z != 0).argmax(axis=1) + (np.arange(len(X)) >= len(x_gens))
        order = np.argsort(starts, kind="stable")
        logicals = np.array([self._logical_pair(i) for i in range(self.k_info)])
        return StabilizerWindow(np.hstack([X, Z])[order], logicals[:, 0], logicals[:, 1], p)

    def _logical_pair(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The spin flip and the phase shift on logical qudit i as (x | z)
        rows, each solved on a narrow window around the qudit's block."""
        p = self.N
        A, B = self.first_matrix, self.second_matrix
        L, K = self.L, self.k_info
        blk = i // self.parent.k
        step, n = self.regs_per_block, self.parent.n
        u = linalg.solve_localized(B.T, A[:, i], p, center=blk * step, halfwidth=step)
        mu = linalg.solve_localized(A.T, (-_unit(K, i)) % p, p, center=blk * n, halfwidth=n)
        zeros = np.zeros(L, dtype=np.int64)
        return np.concatenate([zeros, u]), np.concatenate([(B @ mu) % p, zeros])

    @cached_property
    def support_bound(self) -> int:
        """Max registers touched by any interior template."""
        spans = [_span_len(t.pattern) for t in self.templates]
        return max(spans, default=0)

    @cached_property
    def templates(self) -> tuple["Template", ...]:
        """The operator patterns of the interior, with their shift step, for
        display; they depend on the parent alone. The stabilizer templates
        are the minimal-span X and Z generator rows that start in the
        middle block of a reference window of 4m + 6 blocks (rounded up to
        a multiple of k), one per row; the logical templates are the pair
        of that window's middle qudit. Boundary generators near the window
        edges are window-specific and live only in `stabilizer`."""
        return _extract_templates(self.parent)

    def to_json(self) -> dict:
        stab = self.stabilizer
        return {
            "parent": self.parent.to_json(),
            "N": self.N,
            "window_blocks": self.window_blocks,
            "registers": self.L,
            "step": self.regs_per_block,
            "support_bound": self.support_bound,
            "templates": [t.to_json() for t in self.templates],
            "generators": [op_to_text(g) for g in stab.generators],
            "logical_x": [op_to_text(l) for l in stab.logical_x],
            "logical_z": [op_to_text(l) for l in stab.logical_z],
        }


def op_to_text(op: PauliWindow) -> str | dict:
    return op.to_string() if op.p == 2 else op.to_json()


def _span_len(op: PauliWindow) -> int:
    sup = np.nonzero((op.x != 0) | (op.z != 0))[0]
    if len(sup) == 0:
        return 0
    return int(sup[-1] - sup[0] + 1)


@dataclass(frozen=True)
class Template:
    """A periodic operator pattern: instance t acts at offset + t * step."""

    kind: str  # "stabilizer-x", "stabilizer-z", "logical-x", "logical-z"
    pattern: PauliWindow
    offset: int
    step: int

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "pattern": op_to_text(self.pattern),
            "offset": self.offset,
            "step": self.step,
        }


def _extract_templates(parent: ConvCode) -> tuple[Template, ...]:
    """Templates read from the middle block of the reference window."""
    blocks = 4 * parent.m + 6
    ref = QccCode(parent, blocks + -blocks % parent.k)
    p, L, step = ref.N, ref.L, ref.regs_per_block
    mid = ref.window_blocks // 2 * step
    zeros = np.zeros(L, dtype=np.int64)
    out: list[Template] = []
    for kind, rows in zip(("stabilizer-x", "stabilizer-z"),
                          _generator_rows(ref.first_matrix, ref.second_matrix, p)):
        starts = (rows != 0).argmax(axis=1)
        for row in rows[(mid <= starts) & (starts < mid + step)]:
            xz = (row, zeros) if kind == "stabilizer-x" else (zeros, row)
            pat, start = _normalize(PauliWindow(*xz, p))
            out.append(Template(kind, pat, start - mid, step))
    for kind, row in zip(("logical-x", "logical-z"), ref._logical_pair(ref.k_info // 2)):
        pat, start = _normalize(PauliWindow(row[:L], row[L:], p))
        out.append(Template(kind, pat, start % step, step))
    return tuple(out)


def _normalize(op: PauliWindow) -> tuple[PauliWindow, int]:
    """The operator cut to its support and scaled so that its first
    nonzero (x_j, z_j) entry is 1, so that a pattern does not depend on
    the basis it was read from; and the start of its support."""
    sup = np.nonzero((op.x != 0) | (op.z != 0))[0]
    start = int(sup[0])
    end = int(sup[-1]) + 1
    lead = op.x[start] or op.z[start]
    scale = pow(int(lead), op.p - 2, op.p)
    x = op.x[start:end] * scale % op.p
    z = op.z[start:end] * scale % op.p
    return PauliWindow(x, z, op.p), start


@dataclass(frozen=True)
class CodewordForm:
    """Closed-form description of the code's states: phase schedule from
    the first encoding, register schedule from the second."""

    parent: ConvCode

    def __post_init__(self) -> None:
        _require_non_catastrophic(self.parent)

    def amplitudes(self, info: Sequence[int], n_blocks: int | None = None) -> np.ndarray:
        """Direct summation over all dummy assignments; the desk-scale
        oracle for circuit-built encodings. Returns shape (N,) * L.

        Works on any window length, including windows shorter than the
        m + 1 blocks `QccCode` requires."""
        parent = self.parent
        N = parent.p
        if n_blocks is None:
            if len(info) % parent.k:
                raise ValueError("info length must be a multiple of k")
            n_blocks = len(info) // parent.k
        # A[r, j] couples dummy r to info symbol j; B[s, r] adds it to register s
        A, B = encoding_matrices(parent, n_blocks)
        n_mid, L = B.shape[1], B.shape[0]
        info = field_symbols(info, N, "info symbols")
        if info.shape != (A.shape[1],):
            raise ValueError("info length does not match the window")
        amp = np.zeros((N,) * L, dtype=np.complex128)
        phase_vec = (A @ info) % N
        omega = np.exp(2j * np.pi / N)
        for idx in np.ndindex(*(N,) * n_mid):
            P = np.asarray(idx, dtype=np.int64)
            regs = tuple((B @ P) % N)
            amp[regs] += omega ** int(phase_vec @ P % N)
        amp /= np.linalg.norm(amp.ravel())
        return amp


def codeword_form(parent: ConvCode) -> CodewordForm:
    return CodewordForm(parent)
