"""Monte Carlo estimation of decoded-error rates over memoryless Pauli
channels, with union-bound comparison and window distance measurement.

Trials draw i.i.d. register errors from counter-based RNG streams keyed by
(seed, trial index), so results are bit-identical regardless of chunking
or process fan-out. Trial t's stream is numpy's `Generator(Philox(key=
[seed, t]))` (`trial_rng`), Philox4x64-10, and `sample_error` draws one
trial from it. `run_trials` draws a whole chunk of trials at once
(`_sample_chunk`): it computes Philox4x64-10 for every (trial, counter)
pair of the chunk with numpy uint64 arithmetic and reads the words in the
order numpy's `Generator` reads them, so every trial's error equals
`sample_error`'s bit for bit. Seeds and trial indices lie in [0, 2^63).

`run_trials` decodes each distinct syndrome once and counts logical errors
against payload qubits, the logical pairs whose operators sit clear of
both window edges (`_interior`). `measure_distance` counts operators on
the same interior by default, on the decoder's own `ErrorTrellis`: one
(+, ×) pass over the syndrome-free group of each section gives the number
of operators of each weight that the rows annihilate, for the generators
and for the generators with the logicals, and the window's d and A_d are
where the two counts first differ.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import linalg
from .pauli import PauliWindow
from .qcc import QccCode
from .qviterbi import ErrorTrellis, batch_decode, build_error_trellis

# trials sampled, decoded and classified together by `run_trials`
CHUNK = 2048


class ChannelModel(Enum):
    DEPOLARIZING = "depolarizing"
    INDEPENDENT_XZ = "independent-xz"


@dataclass(frozen=True)
class ChannelSpec:
    p_err: float
    model: ChannelModel = ChannelModel.DEPOLARIZING
    N: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_err <= 1.0:
            raise ValueError(f"error probability {self.p_err} is not in [0, 1]")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent stream per (seed, trial), both in [0, 2^63); order of use is irrelevant."""
    seed, trial, _ = check_trial_keys(seed, trial, 1)
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


def _sample_xz(spec: ChannelSpec, L: int, rng: np.random.Generator):
    N = spec.N
    if spec.model is ChannelModel.DEPOLARIZING:
        hit = rng.random(L) < spec.p_err
        kind = rng.integers(1, N * N, size=L)
        x = np.where(hit, kind // N, 0)
        z = np.where(hit, kind % N, 0)
    else:
        hx = rng.random(L) < spec.p_err
        vx = rng.integers(1, N, size=L)
        hz = rng.random(L) < spec.p_err
        vz = rng.integers(1, N, size=L)
        x = np.where(hx, vx, 0)
        z = np.where(hz, vz, 0)
    return x.astype(np.int64), z.astype(np.int64)


def sample_error(spec: ChannelSpec, L: int, trial: tuple[int, int]) -> PauliWindow:
    """The error `run_trials` draws for trial `trial` = (seed, index): the
    per-trial reference of its chunk sampler (`_sample_chunk`)."""
    x, z = _sample_xz(spec, L, trial_rng(*trial))
    return PauliWindow(x, z, spec.N)


# numpy keys Philox with exactly [seed, trial] only while both fit in int64
_KEY_LIMIT = 2**63


def check_trial_keys(seed: int, first: int, count: int) -> tuple[int, int, int]:
    """`seed`, `first` and `count` as Python ints. TypeError unless each is
    an integer, and not a bool; ValueError unless `count` >= 0 and `seed`
    and the trial indices [first, first + count) all lie in [0, 2^63), the
    range over which each (seed, trial) pair keys its own stream."""
    for value, what in ((seed, "seed"), (first, "first trial index"), (count, "trial count")):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise TypeError(f"{what} must be an integer, got {value!r}")
    seed, first, count = map(operator.index, (seed, first, count))
    if count < 0:
        raise ValueError(f"trial count must be at least 0, got {count}")
    if not 0 <= seed < _KEY_LIMIT:
        raise ValueError(f"seed must be in [0, 2^63), got {seed}")
    if first < 0:
        raise ValueError(f"trial indices must be at least 0, got {first}")
    if first + count > _KEY_LIMIT:
        raise ValueError(f"trial indices must be below 2^63, got up to {first + count - 1}")
    return seed, first, count


# Philox4x64-10 (Salmon et al., SC 2011) with the Random123 constants: the
# round multipliers, split into 32-bit halves for the high word of each
# product, and the per-round key increments; 0-d arrays, the cheapest
# operands for numpy on small chunks
_U64 = functools.partial(np.array, dtype=np.uint64)
_PHILOX_M = [(_U64(m), _U64(m & 0xFFFFFFFF), _U64(m >> 32))
             for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)]
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK32, _SHIFT32 = _U64(0xFFFFFFFF), _U64(32)


def _mulhilo(m, a: np.ndarray):
    """High and low 64-bit words of the 128-bit products m * a, for one of
    `_PHILOX_M` and a uint64 array a. The low word is the wrapping product;
    the high word is summed from 32-bit halves."""
    m, m_lo, m_hi = m
    a_lo, a_hi = a & _MASK32, a >> _SHIFT32
    lo_lo = a_lo * m_lo
    hi_lo = a_hi * m_lo
    mid = (lo_lo >> _SHIFT32) + (hi_lo & _MASK32) + a_lo * m_hi
    return a_hi * m_hi + (hi_lo >> _SHIFT32) + (mid >> _SHIFT32), a * m


def _philox_words(seed: int, first: int, count: int, blocks: int) -> np.ndarray:
    """Words [0, 4 * blocks) of the streams `trial_rng(seed, t)`, one column
    per trial t in [first, first + count): shape (4 * blocks, count).

    Each block is Philox4x64-10 of the counter (b + 1, 0, 0, 0), numpy
    bumping the counter before it makes block b, under the key (seed, t).
    The state is kept flat, block-major, so every operation is on whole
    contiguous arrays."""
    x0 = np.repeat(np.arange(1, blocks + 1, dtype=np.uint64), count)
    x1 = x2 = x3 = np.zeros_like(x0)
    k1 = np.tile(np.arange(first, first + count, dtype=np.uint64), blocks)
    w1 = _U64(_PHILOX_W[1])
    for r in range(_PHILOX_ROUNDS):
        # the key (seed, t), bumped by _PHILOX_W before every round but the first
        k0 = _U64((seed + r * _PHILOX_W[0]) % 2**64)
        if r:
            k1 = k1 + w1
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    words = np.empty((blocks, 4, count), dtype=np.uint64)
    for i, x in enumerate((x0, x1, x2, x3)):
        words[:, i] = x.reshape(blocks, count)
    return words.reshape(4 * blocks, count)


def _stream_positions(calls, L: int):
    """Where each call of `_sample_xz` reads its stream, in numpy `Generator`
    order. `calls` holds None for a `random(L)` call and (low, high) for
    an `integers(low, high, size=L)` call.

    A `random` call takes the next L words: a slice of word indices. An
    `integers` call over more than one value takes one 32-bit half per
    draw, the low half of a word first; a high half left over is taken by
    the next such call, whatever came between. Its positions are half
    indices, 2 * word (+ 1 for the high half). Over one value nothing is
    read: None. Also returns the number of words read."""
    positions = []
    words = 0
    pending = []  # a high half left over by the last bounded call
    for call in calls:
        if call is None:
            positions.append(slice(words, words + L))
            words += L
        elif call[1] - call[0] == 1:
            positions.append(None)
        else:
            fresh = L - len(pending)
            halves = pending + list(range(2 * words, 2 * words + fresh))
            positions.append(np.array(halves, dtype=np.uint64))
            words += -(-fresh // 2)
            pending = [2 * words - 1] if fresh % 2 else []
    return positions, words


def _lemire(u: np.ndarray, r: int):
    """numpy's bounded draw in [0, r] from 32-bit words u held in uint64
    (Lemire's multiply-shift), and whether numpy would reject u and draw
    again."""
    m = u * (r + 1)
    return m >> _SHIFT32, (m & _MASK32) < (0xFFFFFFFF - r) % (r + 1)


def _sample_chunk(spec: ChannelSpec, L: int, seed: int, first: int, count: int):
    """`_sample_xz(spec, L, trial_rng(seed, t))` for t in [first, first +
    count), as the rows of (count, L) arrays x and z, from one Philox pass
    over the chunk. A trial with a bounded draw that numpy would reject,
    and so draw again, is drawn by `_sample_xz` instead."""
    N = spec.N
    if spec.model is ChannelModel.DEPOLARIZING:
        calls = (None, (1, N * N))
    else:
        calls = (None, (1, N)) * 2
    positions, n_words = _stream_positions(calls, L)
    words = _philox_words(seed, first, count, -(-n_words // 4))
    draws = []
    redraw = np.zeros(count, dtype=bool)
    for call, pos in zip(calls, positions):
        if call is None:
            draws.append((words[pos] >> 11) * 2.0**-53 < spec.p_err)
        elif pos is None:
            draws.append(call[0])
        else:
            u = (words[pos >> 1] >> ((pos & 1) * 32)[:, None]) & _MASK32
            value, rejected = _lemire(u, call[1] - call[0] - 1)
            draws.append(value + call[0])
            redraw |= rejected.any(axis=0)
    if spec.model is ChannelModel.DEPOLARIZING:
        hit, kind = draws
        x, z = np.where(hit, kind // N, 0), np.where(hit, kind % N, 0)
    else:
        hx, vx, hz, vz = draws
        x, z = np.where(hx, vx, 0), np.where(hz, vz, 0)
    # (L, count) to (count, L), in one copy each
    x, z = x.T.astype(np.int64, order="C"), z.T.astype(np.int64, order="C")
    for i in np.flatnonzero(redraw):
        x[i], z[i] = _sample_xz(spec, L, trial_rng(seed, first + int(i)))
    return x, z


def wilson_interval(count: int, total: int, z: float = 1.959963984540054):
    """Wilson score interval; well behaved at zero counts. Its lower bound
    is exactly 0 when count is 0 and its upper bound exactly 1 when count
    is total, where rounding would leave a trace of the other side.
    ValueError unless 0 <= count <= total."""
    if not 0 <= count <= total:
        raise ValueError(f"count {count} is not in [0, {total}]")
    if total == 0:
        return 0.0, 1.0
    phat = count / total
    denom = 1 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * np.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    lo = 0.0 if count == 0 else max(0.0, center - half)
    hi = 1.0 if count == total else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class TrialReport:
    trials: int
    timesteps: int
    payload_qubits: int
    payload_indices: tuple[int, ...]
    logical_block_errors: int
    info_symbol_errors: int
    decoded_info_symbols: int
    seed: int
    p_err: float
    model: str

    @property
    def p_e_hat(self) -> float:
        """Trials with any payload logical error, per trial and window block
        (not per payload block, so it moves with the window); NaN when no
        block was decoded."""
        total = self.trials * self.timesteps
        return self.logical_block_errors / total if total else float("nan")

    @property
    def p_b_hat(self) -> float:
        """Info-symbol error rate; NaN when no symbol was decoded."""
        total = self.decoded_info_symbols
        return self.info_symbol_errors / total if total else float("nan")

    def merge(self, other: "TrialReport") -> "TrialReport":
        """The report of two disjoint trial ranges of one run: the counts
        add, and the code, channel and seed must agree."""
        run = (self.timesteps, self.payload_indices, self.seed, self.p_err, self.model)
        if run != (other.timesteps, other.payload_indices, other.seed, other.p_err, other.model):
            raise ValueError("cannot merge reports of different runs")
        return replace(
            self,
            trials=self.trials + other.trials,
            logical_block_errors=self.logical_block_errors + other.logical_block_errors,
            info_symbol_errors=self.info_symbol_errors + other.info_symbol_errors,
            decoded_info_symbols=self.decoded_info_symbols + other.decoded_info_symbols,
        )

    @property
    def p_e_interval(self):
        return wilson_interval(self.logical_block_errors, self.trials * self.timesteps)

    @property
    def p_b_interval(self):
        return wilson_interval(self.info_symbol_errors, self.decoded_info_symbols)


def _interior(code: QccCode) -> tuple[int, int]:
    """Registers [lo, hi) clear of the zero-history start by one block and of
    the right edge, where truncated generators leave errors
    under-constrained, by `support_bound` rounded up to blocks."""
    step = code.regs_per_block
    return step, code.L - -(-code.support_bound // step) * step


def payload_indices(code: QccCode) -> tuple[int, ...]:
    """Logical pairs whose operators lie inside the interior (`_interior`)."""
    lo, hi = _interior(code)
    stab, L = code.stabilizer, code.L
    # the registers each pair acts on, and those of them outside [lo, hi)
    busy = (stab.logical_x_matrix != 0) | (stab.logical_z_matrix != 0)
    busy = busy[:, :L] | busy[:, L:]
    regs = np.arange(L)
    outside = busy & ((regs < lo) | (regs >= hi))
    return tuple(np.flatnonzero(busy.any(axis=1) & ~outside.any(axis=1)).tolist())


class EmptyPayloadError(ValueError):
    """No logical pair of the window sits clear of both edges, so there is
    nothing to count errors against."""


def require_payload(code: QccCode) -> tuple[int, ...]:
    """`payload_indices(code)`, or EmptyPayloadError naming the smallest
    wider window of the same parent whose payload is not empty."""
    payload = payload_indices(code)
    if payload:
        return payload
    parent, W = code.parent, code.window_blocks
    # the search stops at twice the 4m + 6 blocks of the window the
    # templates are read from, or at twice this window if that is wider
    last = max(2 * W, 8 * parent.m + 12)
    for wider in range(W + 1, last + 1):
        try:
            candidate = QccCode(parent, wider)
        except ValueError:  # not a multiple of k
            continue
        if payload_indices(candidate):
            raise EmptyPayloadError(
                f"window of {W} blocks leaves no payload qubit clear of the edges; "
                f"the smallest window with a payload is {wider}"
            )
    raise EmptyPayloadError(
        f"window of {W} blocks leaves no payload qubit clear of the edges, "
        f"and no window up to {last} blocks has one"
    )


def run_trials(
    code: QccCode,
    spec: ChannelSpec,
    trials: int,
    seed: int,
    trial_offset: int = 0,
    trellis: ErrorTrellis | None = None,
) -> TrialReport:
    """Sample, measure, decode, classify; exactly reproducible from seed.

    Trial t's error is `sample_error(spec, code.L, (seed, t))`: each chunk
    of up to CHUNK trials is drawn in one vectorized Philox4x64-10 pass
    (`_sample_chunk`) that reproduces the per-trial streams exactly.
    trial_offset shifts the RNG stream indices so disjoint ranges can run
    in separate processes and still sum to the single-process result;
    `trials` must be at least 0, and the seed and the trial indices
    [trial_offset, trial_offset + trials) must lie in [0, 2^63), else
    ValueError. `trellis` is the code's error trellis, built here when not
    given, so that runs of one code at several error rates can share it; a
    trellis of another code raises ValueError."""
    if spec.N != code.N:
        raise ValueError("channel and code register dimensions differ")
    seed, trial_offset, trials = check_trial_keys(seed, trial_offset, trials)
    stab = code.stabilizer
    if trellis is None:
        trellis = build_error_trellis(code)
    elif ((trellis.p, trellis.block_regs) != (code.N, code.regs_per_block)
          or not np.array_equal(np.hstack([trellis.gen_x, trellis.gen_z]), stab.gen_matrix)):
        raise ValueError("the error trellis was built for a different code")
    payload = payload_indices(code)
    L, p = code.L, code.N

    gx, gz = stab.gen_matrix[:, :L], stab.gen_matrix[:, L:]
    # each payload pair's Z row, then its X row
    log_mat = np.stack([stab.logical_z_matrix, stab.logical_x_matrix], axis=1)
    log_mat = log_mat[list(payload)].reshape(2 * len(payload), 2 * L)
    lx, lz = log_mat[:, :L], log_mat[:, L:]

    block_errors = 0
    symbol_errors = 0
    for start in range(0, trials, CHUNK):
        count = min(CHUNK, trials - start)
        ex, ez = _sample_chunk(spec, L, seed, trial_offset + start, count)
        syn = ((ex @ gz.T - ez @ gx.T) % p).astype(np.min_scalar_type(p - 1))
        # most trials share a handful of syndromes; decode each once, found
        # by the bytes of its row (rows decode independently, so the order
        # in which they come does not matter)
        row_bytes = syn.view(np.dtype((np.void, syn.itemsize * syn.shape[1]))).ravel()
        _, first, inverse = np.unique(row_bytes, return_index=True, return_inverse=True)
        ux, uz, _ = batch_decode(trellis, syn[first], chunk=CHUNK)
        cx, cz = ux[inverse], uz[inverse]
        rx, rz = (ex - cx) % p, (ez - cz) % p
        # action of the residual on payload logicals, pairwise (Z then X row)
        acts = (rx @ lz.T - rz @ lx.T) % p
        acts = acts.reshape(count, len(payload), 2).any(axis=2)
        block_errors += int(acts.any(axis=1).sum())
        symbol_errors += int(acts.sum())

    return TrialReport(
        trials=trials,
        timesteps=code.window_blocks,
        payload_qubits=len(payload),
        payload_indices=payload,
        logical_block_errors=block_errors,
        info_symbol_errors=symbol_errors,
        decoded_info_symbols=trials * len(payload),
        seed=seed,
        p_err=spec.p_err,
        model=spec.model.value,
    )


def union_bound(A_d: float, B_d: float, d: int, k: int, p_err: float):
    """First-order bounds: (A_d 2^d p^(d/2), (B_d / k) 2^d p^(d/2))."""
    if d < 1 or k < 1:
        raise ValueError("d and k must be >= 1")
    base = 2.0**d * p_err ** (d / 2)
    return A_d * base, (B_d / k) * base


@dataclass(frozen=True)
class DistanceReport:
    d: int
    count_at_d: int
    interior: tuple[int, int]


def _interior_bases(gens: np.ndarray, logs: np.ndarray, L: int, lo: int, hi: int, p: int):
    """The (x | z) rows `gens`, and `gens` with `logs`, over L registers,
    restricted to the registers [lo, hi): bases G and J of their spans, as
    (x | z) rows over those registers, each in minimal span form over the
    interleaved (x_j, z_j) columns. Each is `distinct_starts`, then
    `shorten_ends`: both only shorten rows, so banded rows stay banded and
    no dense elimination runs; J starts from G's rows."""
    w = hi - lo

    def minimal_span(rows):
        return linalg.shorten_ends(linalg.distinct_starts(rows, p), p)

    def interleaved(mat):
        rows = np.empty((len(mat), 2 * w), dtype=np.int64)
        rows[:, 0::2], rows[:, 1::2] = mat[:, lo:hi], mat[:, L + lo : L + hi]
        return rows

    G = minimal_span(interleaved(gens))
    J = minimal_span(np.concatenate([G, interleaved(logs)]))
    xz = np.r_[0 : 2 * w : 2, 1 : 2 * w : 2]  # back to (x | z) columns
    return G[:, xz], J[:, xz]


# operator counts are exact int64; a sum past this raises instead of wrapping
_COUNT_MAX = int(np.iinfo(np.int64).max)


def _weight_counts(trellis: ErrorTrellis, cap: int) -> np.ndarray:
    """N(w) for w in [0, cap]: how many operators of weight w on the
    trellis's registers every row annihilates. One (+, ×) pass over each
    section's syndrome-free group, whose candidates close every row at 0;
    a state holds its counts over weights, and a candidate of weight u
    adds its previous state's counts shifted up by u. Raises ValueError
    when a count would pass int64."""
    weights = np.arange(cap + 1)

    def step(counts, src, wt):
        # zero counts below weight 0, so a shift reads its padding
        pad = int(wt.max())
        padded = np.zeros((len(counts), pad + cap + 1), dtype=counts.dtype)
        padded[:, pad:] = counts
        at = (src * padded.shape[1] + pad - wt)[..., None] + weights
        out = padded.ravel()[at[:, 0]]
        for f in range(1, src.shape[1]):
            out += padded.ravel()[at[:, f]]
        return out

    counts = np.zeros((1, cap + 1), dtype=np.int64)
    counts[0, 0] = 1
    for tab in trellis._sections:
        src = tab["src"][0].astype(np.int64)
        # a step key is weight * (states x branches) + branch
        wt = tab["step"][tab["step_row"][0]] // (len(counts) * len(tab["bx"]))
        if int(counts.max()) * src.shape[1] > _COUNT_MAX:
            if step(counts.astype(object), src, wt).max() > _COUNT_MAX:
                raise ValueError("number of syndrome-free operators exceeds int64")
        counts = step(counts, src, wt)
    return counts[0]


def measure_distance(code: QccCode, interior: tuple[int, int] | None = None) -> DistanceReport:
    """Minimum weight d of a syndrome-free, logically acting Pauli
    supported on the interior register range [lo, hi), and the number of
    such Paulis of weight d; window-truncated.

    The result is exact. The generators, and the generators with all
    logicals, restricted to the interior give two bases G and J
    (`_interior_bases`), each an `ErrorTrellis` with one register per
    section. The operators J annihilates are those G annihilates that act
    on no logical, so d is the least weight at which their counts
    (`_weight_counts`) differ, and the difference there is the count at d.
    Counts run up to a weight cap of 4, doubled until they differ. A
    trellis over the state cap raises StateCapError. The default interior
    is `_interior(code)`."""
    stab = code.stabilizer
    L, p = code.L, code.N
    lo, hi = interior if interior is not None else _interior(code)
    if hi <= lo:
        raise ValueError("empty interior range")
    if lo < 0 or hi > L:
        raise ValueError(f"interior range [{lo}, {hi}) is not inside the {L} registers [0, {L})")

    logicals = np.concatenate([stab.logical_z_matrix, stab.logical_x_matrix])
    G, J = _interior_bases(stab.gen_matrix, logicals, L, lo, hi, p)
    if len(J) == len(G):
        raise ValueError("no logically acting operator in the interior range")
    trellises = ErrorTrellis(G, p, 1), ErrorTrellis(J, p, 1)
    cap = 4
    while True:
        n_G, n_J = (_weight_counts(t, cap) for t in trellises)
        differ = np.flatnonzero(n_G != n_J)
        if len(differ):
            d = int(differ[0])
            return DistanceReport(d, int(n_G[d] - n_J[d]), (lo, hi))
        cap *= 2
