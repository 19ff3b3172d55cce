"""Classical convolutional codes over GF(p): encoder, trellis, Viterbi.

Information streams are flat symbol sequences, k symbols per block; code
streams are flat, n symbols per block. Zero history is assumed before the
first block, and terminated operation appends m all-zero input blocks.

`viterbi` is the add-compare-select dynamic program that every trellis
decoder of the package runs, this module's classical decoder and the
error-trellis decoders of `qviterbi` alike. It has one tie-break rule:
minimum cost first, then the lexicographically smallest sequence of branch
labels. A caller labels the branches of each section so that label order
is the order its paths compare in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .gfpoly import PolyMatrix, is_prime

DEFAULT_STATE_CAP = 1 << 20


class StateCapError(ValueError):
    """A size cap would be exceeded, or QCC_STATE_CAP is not a positive integer."""


def size_cap(explicit: int | None, default: int) -> int:
    """The size cap: `explicit` if given, else the QCC_STATE_CAP environment
    variable, else the caller's default. A given cap or a set variable must
    be a positive integer, else StateCapError naming it."""
    if explicit is not None:
        integer = isinstance(explicit, (int, np.integer)) and not isinstance(explicit, bool)
        if not integer or explicit < 1:
            raise StateCapError(f"state cap must be a positive integer, got {explicit!r}")
        return int(explicit)
    env = os.environ.get("QCC_STATE_CAP")
    if not env:
        return default
    if not env.strip().isdecimal() or int(env) < 1:
        raise StateCapError(f"QCC_STATE_CAP must be a positive integer, got {env!r}")
    return int(env)


def field_symbols(values, p: int, what: str) -> np.ndarray:
    """`values` as an int64 array, or ValueError naming `what` unless they
    are integers in GF(p)."""
    try:
        values = np.asarray(values)
    except ValueError:  # a ragged nesting has no array form
        values = None
    if values is None or values.dtype.kind not in "biu" or ((values < 0) | (values >= p)).any():
        raise ValueError(f"{what} must be integers in GF({p}), 0..{p - 1}")
    return values.astype(np.int64)


@dataclass(frozen=True)
class ConvCode:
    """k-input n-output m-memory convolutional code with generator G."""

    G: PolyMatrix

    def __post_init__(self) -> None:
        if self.G.rows > self.G.cols:
            raise ValueError("generator must satisfy k <= n")

    @property
    def p(self) -> int:
        return self.G.p

    @property
    def k(self) -> int:
        return self.G.rows

    @property
    def n(self) -> int:
        return self.G.cols

    @property
    def m(self) -> int:
        return max(self.G.max_degree(), 0)

    def taps(self) -> np.ndarray:
        """Coefficient tensor t[d, a, j]: output j gets t * input a delayed d."""
        t = np.zeros((self.m + 1, self.k, self.n), dtype=np.int64)
        for a in range(self.k):
            for j in range(self.n):
                for d, c in enumerate(self.G.entry(a, j).coeffs):
                    t[d, a, j] = c
        return t

    def to_json(self) -> dict:
        doc = self.G.to_json()
        doc.pop("rows")
        doc.pop("cols")
        return {"p": doc["p"], "k": self.k, "n": self.n, "G": doc["entries"]}

    @classmethod
    def from_json(cls, doc: dict) -> "ConvCode":
        for key in ("p", "k", "n", "G"):
            if key not in doc:
                raise ValueError(f"code descriptor missing field {key!r}")
        G = PolyMatrix.from_coeffs(doc["G"], doc["p"])
        if G.rows != doc["k"] or G.cols != doc["n"]:
            raise ValueError("declared k, n do not match generator grid")
        if "N" in doc and doc["N"] != doc["p"]:
            raise ValueError("register dimension N must equal the field modulus p")
        if "N" in doc and not is_prime(doc["N"]):
            raise ValueError("register dimension N must be prime")
        return cls(G)


def encode_stream(code: ConvCode, info: Sequence[int], terminate: bool = True) -> list[int]:
    """Encode a flat info sequence (length multiple of k)."""
    p, k, n, m = code.p, code.k, code.n, code.m
    if len(info) == 0 or len(info) % k:
        raise ValueError(f"info length must be a positive multiple of k={k}")
    info = field_symbols(info, p, "info symbols")
    if info.ndim != 1:
        raise ValueError(f"info symbols must be one flat sequence, got shape {info.shape}")
    blocks = [info[i : i + k] for i in range(0, len(info), k)]
    if terminate:
        blocks += [[0] * k] * m
    t = code.taps()
    out: list[int] = []
    for i in range(len(blocks)):
        acc = np.zeros(n, dtype=np.int64)
        for d in range(min(m, i) + 1):
            acc += np.asarray(blocks[i - d], dtype=np.int64) @ t[d]
        out.extend(int(v) for v in acc % p)
    return out


@dataclass(frozen=True)
class Trellis:
    """Time-invariant encoder trellis: state = previous m input blocks."""

    code: ConvCode
    n_states: int
    n_branches: int  # per state, = p^k
    next_state: np.ndarray = field(repr=False)  # (S, B) int64
    output: np.ndarray = field(repr=False)  # (S, B, n) int64


def build_trellis(code: ConvCode, state_cap: int | None = None) -> Trellis:
    p, k, n, m = code.p, code.k, code.n, code.m
    n_states = p ** (k * m)
    cap = size_cap(state_cap, DEFAULT_STATE_CAP)
    if n_states > cap:
        raise StateCapError(f"{n_states} states exceed cap {cap}")
    n_branches = p**k
    t = code.taps()

    def unpack(idx: int, length: int) -> list[int]:
        out = []
        for _ in range(length):
            out.append(idx % p)
            idx //= p
        return out

    next_state = np.zeros((n_states, n_branches), dtype=np.int64)
    output = np.zeros((n_states, n_branches, n), dtype=np.int64)
    for s in range(n_states):
        # state digits: most recent block first
        hist = unpack(s, k * m)
        past = [hist[b * k : (b + 1) * k] for b in range(m)]
        for b in range(n_branches):
            u = unpack(b, k)
            acc = np.asarray(u, dtype=np.int64) @ t[0]
            for d in range(1, m + 1):
                acc = acc + np.asarray(past[d - 1], dtype=np.int64) @ t[d]
            output[s, b] = acc % p
            new_hist = (u + hist[: k * (m - 1)]) if m else []
            ns = 0
            for digit in reversed(new_hist):
                ns = ns * p + digit
            next_state[s, b] = ns
    return Trellis(code, n_states, n_branches, next_state, output)




@dataclass(frozen=True)
class DecodePath:
    """Viterbi result: decoded info symbols and the path's Hamming metric."""

    info: tuple[int, ...]
    metric: int
    final_state: int


# add-compare-select -----------------------------------------------------------
#
# A section lists its candidates (previous state, branch) grouped by next
# state: entry [v, j] is the j-th candidate into next state v. A candidate's
# step key packs its branch cost and its branch label as cost * S * B + label,
# where S counts the states before the section and B its labels. Adding the
# previous survivor's (metric * S + rank) * B gives the candidate's key
# ((metric + cost) * S + rank) * B + label, and the least key wins. One
# gather forms the keys of a section, and F - 1 elementwise minimums over
# the slices [:, :, j] compare them.
#
# The winner is read back from its key. Ranks are distinct at every
# boundary, and a previous state and a label fix a candidate, so no two
# keys of a row are equal. So divmod of the least key by S * B gives the
# metric and rank * B + label, which orders the survivors of the new
# boundary; its divmod by B gives the previous state's rank and the label.
# The traceback maps a rank to its state through that boundary's argsort,
# the same one that gives the new ranks by a scatter.


def group_candidates(key: np.ndarray, n_groups: int) -> np.ndarray:
    """Positions of `key` grouped by value: row v of the (n_groups, F)
    result lists the F positions that hold v. Every value occurs F times."""
    counts = np.bincount(key, minlength=n_groups)
    if counts.min() != counts.max():
        raise AssertionError("trellis section whose next states differ in fan-in")
    # a stable sort of integers of at most 16 bits is a radix sort
    return np.argsort(key, kind="stable").reshape(n_groups, -1)


def step_keys(cost, label, n_states: int, n_labels: int, inf: int) -> np.ndarray:
    """Step keys cost * S * B + label of a section's candidates, with costs
    clipped to `inf`; int32 when every key `viterbi` forms from them fits."""
    span = n_states * n_labels
    dtype = np.int32 if (2 * inf + 2) * span < 1 << 31 else np.int64
    return np.minimum(cost, inf).astype(dtype) * span + np.asarray(label, dtype=dtype)


def viterbi(sections, start: np.ndarray, inf: int, settled=None):
    """Add-compare-select over `sections` for a batch of rows.

    `start` holds the metric of every state before the first section, one
    row per decoded word. `inf` is the metric of an unreachable state and
    exceeds every finite path metric. Each section is a triple (src, step,
    B): the previous state and the step key of every candidate, as (rows or
    1, next states, F) arrays grouped as `group_candidates` groups them, and
    the number B of branch labels.

    Each row keeps, for every state, its survivor's metric and the
    survivor's rank in lexicographic order among the survivors at the same
    boundary; the start states rank by index. The candidate of least
    (metric, rank of its previous state, label) wins, so every survivor,
    and the result, is the path of minimum cost and, among those, of
    lexicographically smallest labels. No two candidates of a row may share
    both their previous state and their label, as in any trellis, where the
    two fix the next state: then the ranks stay distinct, and the winner,
    its previous state and its label all follow from its key.

    With settled=None, one traceback from each row's best final survivor
    gives the labels. Otherwise `settled` holds, for every section, how
    many leading labels are committed once it is done, a non-decreasing
    count: whenever it grows, the new labels are committed from the best
    survivor at that point. The labels not committed come from the best
    final survivor.
    Returns the labels (rows, sections) and each row's final metric and
    final state.
    """
    metric = np.asarray(start, dtype=np.int64)
    n_rows, n_states = metric.shape
    # start states rank by index, so that every boundary's ranks are distinct
    order = np.broadcast_to(np.arange(n_states), metric.shape)
    rank = order
    offsets = np.arange(n_rows)[:, None] * n_states
    winners: list[tuple[np.ndarray, np.ndarray, int]] = []
    labels = np.zeros((n_rows, 0), dtype=np.int64)
    for t, (src, step, n_labels) in enumerate(sections):
        span = n_states * n_labels
        base = metric.astype(step.dtype) * n_states
        base += rank
        base *= n_labels
        key = np.take(base, src + offsets[:, :, None])
        key += step
        best = key[:, :, 0].copy()
        for f in range(1, key.shape[2]):
            np.minimum(best, key[:, :, f], out=best)
        metric, within = np.divmod(best, span)
        np.minimum(metric, inf, out=metric)
        winners.append((order, within, n_labels))
        order = within.argsort(axis=1)
        n_states = order.shape[1]
        offsets = np.arange(n_rows)[:, None] * n_states
        rank = np.empty(order.shape, dtype=step.dtype)
        rank.ravel()[order + offsets] = np.arange(n_states)
        order = order.astype(np.min_scalar_type(n_states - 1))
        done = labels.shape[1]
        if settled is not None and settled[t] > done:
            pending = _traceback(winners[done:], _best_state(metric, rank))
            labels = np.hstack([labels, pending[:, : settled[t] - done]])
    end = _best_state(metric, rank)
    labels = np.hstack([labels, _traceback(winners[labels.shape[1] :], end)])
    return labels, metric[np.arange(n_rows), end].astype(np.int64), end


def _best_state(metric: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Each row's state of least (metric, rank)."""
    return np.argmin(metric * metric.shape[1] + rank, axis=1)


def _traceback(winners, state: np.ndarray) -> np.ndarray:
    """Labels of the survivors ending in `state`, one column per section."""
    rows = np.arange(len(state))
    out = np.empty((len(state), len(winners)), dtype=np.int64)
    for t in range(len(winners) - 1, -1, -1):
        order, within, n_labels = winners[t]
        prev_rank, out[:, t] = np.divmod(within[rows, state], n_labels)
        state = order[rows, prev_rank]
    return out


def _branch_inputs(trellis: Trellis) -> list[tuple[int, ...]]:
    p, k = trellis.code.p, trellis.code.k
    out = []
    for b in range(trellis.n_branches):
        u, idx = [], b
        for _ in range(k):
            u.append(idx % p)
            idx //= p
        out.append(tuple(u))
    return out


def viterbi_decode(
    trellis: Trellis,
    received: Sequence[int],
    traceback: int | None = None,
    terminated: bool = True,
) -> DecodePath:
    """Minimum Hamming distance decoding; ties resolved toward the
    lexicographically smallest information sequence.

    With terminated=True the received word must include the m zero-tail
    blocks and the path is forced back to the zero state; the returned
    info excludes the tail. traceback=None decodes the whole window
    exactly; an integer commits each block from the best survivor once
    that many blocks are pending.
    """
    code = trellis.code
    k, n, m = code.k, code.n, code.m
    if len(received) == 0 or len(received) % n:
        raise ValueError(f"received length must be a positive multiple of n={n}")
    if traceback is not None and traceback < 1:
        raise ValueError("traceback depth must be >= 1")
    rec = field_symbols(received, code.p, "received symbols")
    if rec.ndim != 1:
        raise ValueError(f"received symbols must be one flat sequence, got shape {rec.shape}")
    rec = rec.reshape(-1, n)
    T = rec.shape[0]
    if terminated and T <= m:
        raise ValueError("terminated stream shorter than the zero tail")
    S, B = trellis.n_states, trellis.n_branches
    # labels rank the input blocks lexicographically, so that label order
    # is the order of the information sequences
    inputs = _branch_inputs(trellis)
    by_label = sorted(range(B), key=inputs.__getitem__)
    label_of = np.argsort(by_label)
    src, branch = np.divmod(group_candidates(trellis.next_state.ravel(), S), B)
    inf = n * T + 1

    def sections():
        for t in range(T):
            cost = np.count_nonzero(trellis.output != rec[t], axis=2)[src, branch]
            if terminated and t >= T - m:
                cost = np.where(branch == 0, cost, inf)
            yield src[None], step_keys(cost, label_of[branch], S, B, inf)[None], B

    start = np.full((1, S), inf)
    start[0, 0] = 0
    # with a traceback depth, the oldest pending label settles after each
    # section once `traceback` sections are pending
    settled = None if traceback is None else [max(0, t + 2 - traceback) for t in range(T)]
    labels, metric, end = viterbi(sections(), start, inf, settled)
    info = [u for label in labels[0] for u in inputs[by_label[label]]]
    if terminated:
        info = info[: k * (T - m)]
    return DecodePath(tuple(info), int(metric[0]), int(end[0]))
