"""Minimum-weight Pauli recovery from syndromes by trellis search.

The window's registers are processed in blocks. A trellis state at a block
boundary records, for every generator whose support straddles the boundary,
the partial syndrome accumulated so far; this is exactly the information
future generators can still see, so the dynamic program is an exact
minimum-weight search. Branch metric is the Pauli weight of the block's
error pattern. Every decoder here runs `convcode.viterbi`, with its one
tie-break rule: among corrections of minimum weight, the lexicographically
smallest sequence of branch indices wins, which is the smallest
register-interleaved (x, z) assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .convcode import StateCapError, group_candidates, size_cap, step_keys, viterbi
from .pauli import PauliWindow, StabilizerWindow
from .qcc import QccCode

DEFAULT_STATE_CAP = 1 << 24


@dataclass(frozen=True)
class SyndromeSequence:
    """Syndrome values aligned with a StabilizerWindow's generator order."""

    values: tuple[int, ...]
    L: int

    @classmethod
    def from_error(cls, stab: StabilizerWindow, error: PauliWindow) -> "SyndromeSequence":
        return cls(tuple(int(v) for v in stab.syndrome(error)), stab.L)


@dataclass(frozen=True)
class RecoveryPath:
    correction: PauliWindow
    cost: int
    branches: tuple[int, ...]


def _digits(width: int, p: int) -> np.ndarray:
    """All base-p words of the given width, one per row, in
    itertools.product order."""
    return np.arange(p**width)[:, None] // p ** np.arange(width - 1, -1, -1) % p


class ErrorTrellis:
    """Block trellis over a stabilizer window.

    Generators are re-based to minimal span form so boundary states stay
    small; the syndrome transform back to the window's generator order is
    kept so observed syndromes can be fed in directly.
    """

    def __init__(self, stab: StabilizerWindow, block_regs: int, state_cap: int | None = None):
        if block_regs < 1:
            raise ValueError("block size must be positive")
        self.stab = stab
        self.p = stab.p
        self.L = stab.L
        self.block_regs = block_regs
        self.n_blocks = -(-self.L // block_regs)
        p = self.p

        gen_matrix = np.array(
            [g.symplectic() for g in stab.generators], dtype=np.int64
        )
        if len(gen_matrix) == 0:
            raise ValueError("trellis needs at least one generator")
        # interleave (x_j, z_j) per register so span reflects register order
        inter = np.empty_like(gen_matrix)
        inter[:, 0::2] = gen_matrix[:, : self.L]
        inter[:, 1::2] = gen_matrix[:, self.L :]
        mss = linalg.minimal_span_basis(inter, p)
        self.G = len(mss)
        self.gen_x = np.empty((self.G, self.L), dtype=np.int64)
        self.gen_z = np.empty((self.G, self.L), dtype=np.int64)
        self.gen_x[:] = mss[:, 0::2]
        self.gen_z[:] = mss[:, 1::2]
        # syndrome transform: mss generator = combo of window generators
        self.transform = np.zeros((self.G, len(stab.generators)), dtype=np.int64)
        for i in range(self.G):
            row = np.concatenate([self.gen_x[i], self.gen_z[i]])
            coeffs = linalg.solve(gen_matrix.T, row, p)
            if coeffs is None:
                raise AssertionError("minimal span row left the generator space")
            self.transform[i] = coeffs

        sup = (self.gen_x != 0) | (self.gen_z != 0)
        firsts = [int(np.nonzero(s)[0][0]) // block_regs for s in sup]
        lasts = [int(np.nonzero(s)[0][-1]) // block_regs for s in sup]
        self.first_block = np.array(firsts)
        self.last_block = np.array(lasts)

        self.open_at: list[list[int]] = []  # open before each block boundary
        for t in range(self.n_blocks + 1):
            self.open_at.append(
                [g for g in range(self.G) if self.first_block[g] < t <= self.last_block[g]]
            )
        max_open = max(len(o) for o in self.open_at)
        cap = size_cap(state_cap, DEFAULT_STATE_CAP)
        if p ** max_open > cap:
            raise StateCapError(
                f"{p}^{max_open} trellis states exceed cap {cap}"
            )
        self.max_open = max_open
        self._blocks = [self._block_tables(t) for t in range(self.n_blocks)]

    def n_states(self, boundary: int) -> int:
        return self.p ** len(self.open_at[boundary])

    def _block_tables(self, t: int):
        p = self.p
        lo = t * self.block_regs
        hi = min(self.L, lo + self.block_regs)
        pats = _digits(2 * (hi - lo), p)
        bx = pats[:, 0::2]
        bz = pats[:, 1::2]
        wt = ((bx != 0) | (bz != 0)).sum(axis=1)

        active = [
            g
            for g in range(self.G)
            if self.first_block[g] <= t <= self.last_block[g]
        ]
        open_prev = self.open_at[t]
        open_next = self.open_at[t + 1]
        closing = [g for g in active if self.last_block[g] == t]
        S_prev = p ** len(open_prev)
        n_branch = len(pats)
        states = _digits(len(open_prev), p)

        # group key of each (state, branch): the values the closing
        # generators reach, then the next state; a row of syndromes takes
        # the group whose closing values it observed. Keys of at most 16
        # bits take less arithmetic and sort by radix.
        n_groups = p ** len(active)
        dtype = np.uint16 if n_groups <= 1 << 16 else np.int64
        key = np.zeros((S_prev, n_branch), dtype=dtype)
        for g in closing + open_next:
            # syndrome convention: sym(error, gen) = x_e . z_g - z_e . x_g
            contrib = (bx @ self.gen_z[g, lo:hi] - bz @ self.gen_x[g, lo:hi]) % p
            prev = states[:, open_prev.index(g)] if g in open_prev else np.zeros(S_prev)
            key *= p
            key += (prev.astype(dtype)[:, None] + contrib.astype(dtype)) % p
        src, label = np.divmod(group_candidates(key.ravel(), n_groups), n_branch)
        shape = (p ** len(closing), p ** len(open_next), -1)
        return {
            "lo": lo,
            "hi": hi,
            "bx": bx,
            "bz": bz,
            "closing": closing,
            "src": src.astype(np.min_scalar_type(S_prev - 1)).reshape(shape),
            "step": step_keys(wt[label], label, S_prev, n_branch, self.L + 1).reshape(shape),
        }

    def map_syndrome(self, syn: SyndromeSequence | Sequence[int]) -> np.ndarray:
        """Observed syndrome values (one row or many) in the trellis's
        generator basis."""
        values = syn.values if isinstance(syn, SyndromeSequence) else syn
        values = np.asarray(values, dtype=np.int64)
        if values.shape[-1:] != (len(self.stab.generators),):
            raise ValueError(
                f"expected {len(self.stab.generators)} syndrome values, got {values.shape}"
            )
        return (values @ self.transform.T) % self.p


def build_error_trellis(
    code: QccCode | StabilizerWindow,
    block_regs: int | None = None,
    state_cap: int | None = None,
) -> ErrorTrellis:
    if isinstance(code, QccCode):
        return ErrorTrellis(code.stabilizer, code.regs_per_block, state_cap)
    if block_regs is None:
        raise ValueError("block_regs is required for a bare stabilizer window")
    return ErrorTrellis(code, block_regs, state_cap)


def _as_trellis(code, state_cap: int | None = None) -> ErrorTrellis:
    if isinstance(code, ErrorTrellis):
        return code
    return build_error_trellis(code, state_cap=state_cap)


def _decode(trellis: ErrorTrellis, syndromes, depth: int | None = None):
    """Branch indices (rows, blocks) and costs of the minimum-weight
    corrections of a batch of syndromes."""
    targets = np.atleast_2d(trellis.map_syndrome(syndromes))
    p, inf = trellis.p, trellis.L + 1

    def sections():
        for tab in trellis._blocks:
            group = np.zeros(len(targets), dtype=np.int64)
            for g in tab["closing"]:
                group = group * p + targets[:, g]
            yield tab["src"][group], tab["step"][group], len(tab["bx"])

    labels, cost, _ = viterbi(sections(), np.zeros((len(targets), 1)), inf, depth)
    if (cost >= inf).any():
        raise ValueError("syndrome is inconsistent with the generator set")
    return labels, cost


def _corrections(trellis: ErrorTrellis, labels: np.ndarray):
    """(x, z) arrays of shape (rows, L) of the branches in `labels`."""
    x = np.zeros((len(labels), trellis.L), dtype=np.int64)
    z = np.zeros((len(labels), trellis.L), dtype=np.int64)
    for t, tab in enumerate(trellis._blocks):
        x[:, tab["lo"] : tab["hi"]] = tab["bx"][labels[:, t]]
        z[:, tab["lo"] : tab["hi"]] = tab["bz"][labels[:, t]]
    return x, z


def qva_decode(
    code: QccCode | ErrorTrellis,
    syn: SyndromeSequence | Sequence[int],
    state_cap: int | None = None,
) -> RecoveryPath:
    """Minimum-weight Pauli correction consistent with the syndrome."""
    trellis = _as_trellis(code, state_cap)
    values = np.asarray(syn.values if isinstance(syn, SyndromeSequence) else syn, dtype=np.int64)
    labels, cost = _decode(trellis, values)
    x, z = _corrections(trellis, labels)
    correction = PauliWindow(x[0], z[0], trellis.p)
    assert np.array_equal(trellis.stab.syndrome(correction) % trellis.p, values % trellis.p)
    return RecoveryPath(correction, int(cost[0]), tuple(int(b) for b in labels[0]))


def batch_decode(
    trellis: ErrorTrellis, syndromes: np.ndarray, chunk: int = 2048
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized decoding of many syndromes at once, `chunk` rows at a time.

    Returns (x, z, cost) arrays of shapes (M, L), (M, L), (M,); each row is
    the correction qva_decode returns for that syndrome.
    """
    syndromes = np.asarray(syndromes, dtype=np.int64)
    M = syndromes.shape[0]
    xs = np.zeros((M, trellis.L), dtype=np.int64)
    zs = np.zeros((M, trellis.L), dtype=np.int64)
    costs = np.zeros(M, dtype=np.int64)
    for start in range(0, M, chunk):
        sl = slice(start, min(M, start + chunk))
        labels, costs[sl] = _decode(trellis, syndromes[sl])
        xs[sl], zs[sl] = _corrections(trellis, labels)
    return xs, zs, costs


def streaming_decode(
    code: QccCode | ErrorTrellis,
    syn: SyndromeSequence | Sequence[int],
    traceback: int,
) -> list[RecoveryPath]:
    """Blockwise decoding with commits at a fixed latency.

    Runs the same dynamic program but commits the oldest undecided block
    from the current best survivor once `traceback` blocks are pending;
    on widely separated errors the committed corrections agree with the
    full-window decoder. Returns one segment per block.
    """
    trellis = _as_trellis(code)
    min_tb = max(
        int(l - f) + 1 for f, l in zip(trellis.first_block, trellis.last_block)
    )
    if traceback < min_tb:
        raise ValueError(f"traceback {traceback} below minimum {min_tb}")
    labels, _ = _decode(trellis, syn, traceback)
    x, z = _corrections(trellis, labels)
    segments = []
    for t, tab in enumerate(trellis._blocks):
        sx = np.zeros(trellis.L, dtype=np.int64)
        sz = np.zeros(trellis.L, dtype=np.int64)
        sx[tab["lo"] : tab["hi"]] = x[0, tab["lo"] : tab["hi"]]
        sz[tab["lo"] : tab["hi"]] = z[0, tab["lo"] : tab["hi"]]
        corr = PauliWindow(sx, sz, trellis.p)
        segments.append(RecoveryPath(corr, corr.weight(), (int(labels[0, t]),)))
    return segments
