"""Minimum-weight Pauli recovery from syndromes by trellis search.

The window's registers are cut into sections, one or more per block of the
parent code, chosen so that decoding does the least work (`ErrorTrellis`).
A trellis state at a section boundary records, for every generator whose
support straddles the boundary, the partial syndrome accumulated so far;
this is exactly the information future generators can still see, so the
dynamic program is an exact minimum-weight search. Branch metric is the
Pauli weight of the section's error pattern. A path is the same error
whatever the cuts, and every decoder here runs `convcode.viterbi`, with
its one tie-break rule: among corrections of minimum weight, the
lexicographically smallest sequence of branch indices wins, which is the
smallest register-interleaved (x, z) assignment. So costs and corrections
depend neither on the cuts nor on the generator basis. The trellis uses
the window's generators as given, with no change of basis; the minimal
span form of `QccCode.stabilizer` keeps the fewest open at any boundary.
Every decoder takes a built `ErrorTrellis`, so one trellis serves many
calls, and syndromes as arrays of values in the window's generator order.

The trellis serves the window distance too. `ErrorTrellis` takes its rows
as a plain (x | z) matrix, and `channel.measure_distance` builds one over
rows restricted to the interior, with one register per section, and
counts the paths of each weight through each section's syndrome-free
group, the group of syndrome 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .convcode import StateCapError, field_symbols, group_candidates, size_cap, step_keys, viterbi
from .pauli import PauliWindow
from .qcc import QccCode

DEFAULT_STATE_CAP = 1 << 24
# `batch_decode` decodes at most this many candidates at once, rows times
# the candidates of the widest section, so that one section's keys, step
# keys and gather indices take under 40 MB
BATCH_CANDIDATES = 1 << 21


@dataclass(frozen=True)
class RecoveryPath:
    correction: PauliWindow
    cost: int
    branches: tuple[int, ...]


def _digits(width: int, p: int) -> np.ndarray:
    """All base-p words of the given width, one per row, in
    itertools.product order."""
    return np.arange(p**width)[:, None] // p ** np.arange(width - 1, -1, -1) % p


def _section_bounds(n_open: np.ndarray, last: np.ndarray, block_regs: int, p: int):
    """Register boundaries that cut each block into the sections of least
    decoding work (Lafourcade and Vardy's dynamic program for trellis
    sectionalisation); every block boundary is a cut.

    With o_j the rows open across boundary j and c(a, b) the rows whose
    last register lies in [a, b), a decoded row visits p^(o_a + 2(b-a) -
    c(a, b)) candidates in section [a, b), the group its closing values
    select, and ranks p^(o_b) survivors after it. The cuts minimise the sum
    of both over the sections; one section per block is among the choices.
    """
    L = len(n_open) - 1
    closed = np.concatenate([[0], np.cumsum(np.bincount(last, minlength=L))])

    def work(a: int, b: int) -> int:
        o_a, o_b = int(n_open[a]), int(n_open[b])
        return p ** (o_a + 2 * (b - a) - int(closed[b] - closed[a])) + p**o_b

    bounds = [0]
    for lo in range(0, L, block_regs):
        hi = min(L, lo + block_regs)
        # best[b]: least work to reach boundary b from lo, and the cut before b
        best = {lo: (0, lo)}
        for b in range(lo + 1, hi + 1):
            best[b] = min((best[a][0] + work(a, b), a) for a in range(lo, b))
        cuts = [hi]
        while best[cuts[-1]][1] != lo:
            cuts.append(best[cuts[-1]][1])
        bounds += reversed(cuts)
    return tuple(bounds)


class ErrorTrellis:
    """Register-sectioned trellis over the rows of `gen_matrix`, an (x | z)
    integer matrix over L registers of dimension p: a window's generators
    (`build_error_trellis`), or the rows whose syndrome-free operators
    `channel.measure_distance` counts.

    It decodes in the rows as given, so syndromes are fed in as observed.
    The rows must start at distinct register-interleaved (x_j, z_j)
    columns, else ValueError. Results do not depend on the basis; minimal
    span form, as in `QccCode.stabilizer`, keeps the trellis small.

    Every block of `block_regs` registers is cut into the sections of
    least decoding work (`_section_bounds`); `bounds` lists the cuts in
    registers and includes every block boundary. A section's branches are
    the error patterns on its registers. `n_blocks`, `first_block`,
    `last_block` and `n_states(t)` count blocks, and `max_open` covers
    every section boundary. States, or the candidates of one section, over
    `size_cap` raise StateCapError before any table is built.

    A section's candidates are grouped by the values its closing
    generators reach and the next state. The tables come from digit
    arithmetic, not from keying every (state, branch) pair: a branch alone
    fixes the digits of the generators that open in the section, so a
    group's candidates are the branches whose new digits equal the group's,
    and each has one previous state, digit by digit the group's digit less
    the branch's contribution mod p. Step keys depend on the branch alone
    and are stored once per branch, one row per value of the new digits;
    `step_row` maps each group to its row.
    """

    def __init__(self, gen_matrix: np.ndarray, p: int, block_regs: int):
        if block_regs < 1:
            raise ValueError("block size must be positive")
        gen_matrix = np.asarray(gen_matrix, dtype=np.int64) % p
        if gen_matrix.ndim != 2 or gen_matrix.shape[1] % 2:
            raise ValueError("trellis rows must be an (x | z) matrix with 2L columns")
        if len(gen_matrix) == 0:
            raise ValueError("trellis needs at least one generator")
        self.p = p
        self.L = L = gen_matrix.shape[1] // 2
        self.block_regs = block_regs
        self.n_blocks = -(-L // block_regs)
        self.G = len(gen_matrix)
        self.gen_x = np.ascontiguousarray(gen_matrix[:, :L])
        self.gen_z = np.ascontiguousarray(gen_matrix[:, L:])

        sup = (self.gen_x != 0) | (self.gen_z != 0)
        self._first = sup.argmax(axis=1)
        # starts over the interleaved columns, 2j for x_j and 2j + 1 for z_j
        starts = np.sort(2 * self._first + (self.gen_x[np.arange(self.G), self._first] == 0))
        if not sup.any(axis=1).all() or (starts[1:] == starts[:-1]).any():
            raise ValueError("trellis generators must be nonzero and start at distinct "
                             "register-interleaved (x_j, z_j) columns")
        self._last = L - 1 - sup[:, ::-1].argmax(axis=1)
        self.first_block = self._first // block_regs
        self.last_block = self._last // block_regs
        # rows open across each register boundary j: first < j <= last
        j = np.arange(L + 1)
        self._n_open = ((self._first[:, None] < j) & (j <= self._last[:, None])).sum(axis=0)
        self.bounds = _section_bounds(self._n_open, self._last, block_regs, p)

        max_open = max(int(self._n_open[b]) for b in self.bounds)
        cap = size_cap(None, DEFAULT_STATE_CAP)
        if p ** max_open > cap:
            raise StateCapError(
                f"{p}^{max_open} trellis states exceed cap {cap}"
            )
        # a section [a, b) tabulates p^(o_a + 2(b - a)) candidates
        widest = max(int(self._n_open[a]) + 2 * (b - a)
                     for a, b in zip(self.bounds, self.bounds[1:]))
        if p ** widest > cap:
            raise StateCapError(
                f"{p}^{widest} candidates in one trellis section exceed cap {cap}"
            )
        self.max_open = max_open
        self._sections = [self._section_tables(lo, hi)
                          for lo, hi in zip(self.bounds, self.bounds[1:])]

    def n_states(self, boundary: int) -> int:
        """Trellis states at block boundary `boundary`."""
        return self.p ** int(self._n_open[min(boundary * self.block_regs, self.L)])

    def _section_tables(self, lo: int, hi: int):
        p = self.p
        pats = _digits(2 * (hi - lo), p)
        bx = pats[:, 0::2]
        bz = pats[:, 1::2]
        wt = ((bx != 0) | (bz != 0)).sum(axis=1)

        first, last = self._first, self._last
        active = np.flatnonzero((first < hi) & (last >= lo))
        open_prev = active[first[active] < lo].tolist()
        open_next = active[last[active] >= hi].tolist()
        closing = active[last[active] < hi].tolist()
        # a group holds the values the closing generators reach, then the
        # next state, as base-p digits over `keyed`; a row of syndromes
        # takes the group whose closing values it observed
        keyed = closing + open_next
        new = [g for g in keyed if first[g] >= lo]
        S_prev = p ** len(open_prev)
        n_branch = len(pats)
        # syndrome convention: sym(error, gen) = x_e . z_g - z_e . x_g
        contrib = (bx @ self.gen_z[keyed, lo:hi].T - bz @ self.gen_x[keyed, lo:hi].T) % p

        # a branch alone sets the digits of the generators opening here,
        # so the candidates of a group are the branches whose new digits
        # are the group's, each from one previous state
        n_new = p ** len(new)
        new_key = contrib[:, [keyed.index(g) for g in new]] @ p ** np.arange(len(new) - 1, -1, -1)
        members = group_candidates(new_key, n_new)

        # previous state of every (new digits, candidate, open_prev digits),
        # one open_prev digit at a time from the last: the group's digit
        # less the branch's contribution
        dtype = np.min_scalar_type(S_prev - 1)
        prev = np.zeros((n_new, members.shape[1], 1), dtype=dtype)
        for g in reversed(open_prev):
            c = contrib[members, keyed.index(g), None]
            digit = ((np.arange(p) - c) % p * prev.shape[2]).astype(dtype)
            prev = (digit[..., None] + prev[:, :, None]).reshape(*prev.shape[:2], -1)

        # the new digits (its step row) and the open_prev digits (its
        # previous state) of every group, one digit of `keyed` at a time
        step_row = state = np.zeros(1, dtype=np.int64)
        for g in keyed:
            if g in open_prev:
                weight = p ** (len(open_prev) - 1 - open_prev.index(g))
                state = (state[:, None] + weight * np.arange(p)).ravel()
                step_row = step_row.repeat(p)
            else:
                step_row = (step_row[:, None] * p + np.arange(p)).ravel()
                state = state.repeat(p)
        shape = (p ** len(closing), p ** len(open_next))
        return {
            "lo": lo,
            "hi": hi,
            "bx": bx,
            "bz": bz,
            "closing": closing,
            "src": prev.transpose(0, 2, 1)[step_row, state].reshape(*shape, -1),
            "step": step_keys(wt[members], members, S_prev, n_branch, self.L + 1),
            "step_row": step_row.astype(np.min_scalar_type(n_new - 1)).reshape(shape),
        }


def build_error_trellis(code: QccCode) -> ErrorTrellis:
    return ErrorTrellis(code.stabilizer.gen_matrix, code.N, code.regs_per_block)


def _decode(trellis: ErrorTrellis, syndromes, settled=None):
    """Branch indices (rows, sections) and costs of the minimum-weight
    corrections of a batch of syndromes; `settled` as in `viterbi`."""
    targets = np.atleast_2d(syndromes)
    if targets.shape[-1:] != (trellis.G,):
        raise ValueError(f"expected {trellis.G} syndrome values, got {np.shape(syndromes)}")
    targets = field_symbols(targets, trellis.p, "syndrome values")
    p, inf = trellis.p, trellis.L + 1

    def sections():
        for tab in trellis._sections:
            group = np.zeros(len(targets), dtype=np.int64)
            for g in tab["closing"]:
                group = group * p + targets[:, g]
            step = np.take(tab["step"], tab["step_row"][group], axis=0)
            yield tab["src"][group], step, len(tab["bx"])

    labels, cost, _ = viterbi(sections(), np.zeros((len(targets), 1)), inf, settled)
    if (cost >= inf).any():
        raise ValueError("syndrome is inconsistent with the generator set")
    return labels, cost


def _corrections(trellis: ErrorTrellis, labels: np.ndarray):
    """(x, z) arrays of shape (rows, L) of the branches in `labels`."""
    x = np.zeros((len(labels), trellis.L), dtype=np.int64)
    z = np.zeros((len(labels), trellis.L), dtype=np.int64)
    for s, tab in enumerate(trellis._sections):
        x[:, tab["lo"] : tab["hi"]] = tab["bx"][labels[:, s]]
        z[:, tab["lo"] : tab["hi"]] = tab["bz"][labels[:, s]]
    return x, z


def _block_labels(trellis: ErrorTrellis, x: np.ndarray, z: np.ndarray) -> tuple[int, ...]:
    """Each block's error pattern as its index among all patterns of the
    block, in register-interleaved (x, z) digit order."""
    p, br = trellis.p, trellis.block_regs
    labels = []
    for lo in range(0, trellis.L, br):
        label = 0
        for xj, zj in zip(x[lo : lo + br], z[lo : lo + br]):
            label = (label * p + int(xj)) * p + int(zj)
        labels.append(label)
    return tuple(labels)


def qva_decode(trellis: ErrorTrellis, syn: Sequence[int]) -> RecoveryPath:
    """Minimum-weight Pauli correction consistent with the syndrome; its
    `branches` are the block patterns (`_block_labels`)."""
    labels, cost = _decode(trellis, syn)
    x, z = _corrections(trellis, labels)
    correction = PauliWindow(x[0], z[0], trellis.p)
    assert np.array_equal((trellis.gen_z @ x[0] - trellis.gen_x @ z[0]) % trellis.p, syn)
    return RecoveryPath(correction, int(cost[0]), _block_labels(trellis, x[0], z[0]))


def batch_decode(
    trellis: ErrorTrellis, syndromes: np.ndarray, chunk: int = 2048
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized decoding of many syndromes at once, `chunk` rows at a
    time, or fewer where rows times the candidates of the widest section
    would exceed BATCH_CANDIDATES.

    Returns (x, z, cost) arrays of shapes (M, L), (M, L), (M,); each row is
    the correction qva_decode returns for that syndrome. `syndromes` must
    be an (M, G) array, one row of the G generators' values per syndrome,
    else ValueError.
    """
    syndromes = np.asarray(syndromes)
    if syndromes.ndim != 2 or syndromes.shape[1] != trellis.G:
        raise ValueError(f"expected an (M, {trellis.G}) array of syndromes, "
                         f"got shape {syndromes.shape}")
    M = syndromes.shape[0]
    xs = np.zeros((M, trellis.L), dtype=np.int64)
    zs = np.zeros((M, trellis.L), dtype=np.int64)
    costs = np.zeros(M, dtype=np.int64)
    # a row's candidates in a section are its next states times their fan-in
    widest = max(tab["src"][0].size for tab in trellis._sections)
    chunk = max(1, min(chunk, BATCH_CANDIDATES // widest))
    for start in range(0, M, chunk):
        sl = slice(start, min(M, start + chunk))
        labels, costs[sl] = _decode(trellis, syndromes[sl])
        xs[sl], zs[sl] = _corrections(trellis, labels)
    return xs, zs, costs


def streaming_decode(
    trellis: ErrorTrellis,
    syn: Sequence[int],
    traceback: int,
) -> list[RecoveryPath]:
    """Blockwise decoding with commits at a fixed latency.

    Runs the same dynamic program but, once `traceback` blocks are
    pending, commits every section of the oldest undecided block from the
    current best survivor at each block end; on widely separated errors
    the committed corrections agree with the full-window decoder. Returns
    one segment per block.
    """
    min_tb = max(
        int(l - f) + 1 for f, l in zip(trellis.first_block, trellis.last_block)
    )
    if traceback < min_tb:
        raise ValueError(f"traceback {traceback} below minimum {min_tb}")
    L, br = trellis.L, trellis.block_regs
    ends = np.array(trellis.bounds[1:])
    # blocks complete after each section, then the sections of the blocks
    # settled by then
    done = np.where(ends == L, trellis.n_blocks, ends // br)
    settled_end = np.minimum(L, np.maximum(0, done + 1 - traceback) * br)
    settled = np.searchsorted(ends, settled_end, side="right")
    labels, _ = _decode(trellis, syn, settled)
    x, z = _corrections(trellis, labels)
    blocks = _block_labels(trellis, x[0], z[0])
    segments = []
    for t, lo in enumerate(range(0, L, br)):
        sx = np.zeros(L, dtype=np.int64)
        sz = np.zeros(L, dtype=np.int64)
        sx[lo : lo + br] = x[0, lo : lo + br]
        sz[lo : lo + br] = z[0, lo : lo + br]
        corr = PauliWindow(sx, sz, trellis.p)
        segments.append(RecoveryPath(corr, corr.weight(), (blocks[t],)))
    return segments
