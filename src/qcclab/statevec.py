"""Dense qudit state-vector engine for desk-scale circuit verification.

Amplitudes are a C-contiguous complex128 array of shape (N,) * L with
register j on axis j. Four in-place kernels act on it: `linear` permutes
the labels, |v> -> |M v + a> for an L x L matrix M invertible mod N;
`fourier` transforms one register; `local-phase` and `pair-phase` multiply
by phases of one or two registers' labels. A kernel validates its
parameters before it writes and writes back into the same buffer, so the
layout stays contiguous. The gates `add-const`, `add` and `mul` have no
kernel: a gate list runs each maximal stretch of them as one `linear` call
with the affine map they compose to.

`linear` and `local-phase` view the amplitudes as an (N^h, N^(L-h))
matrix, h = L // 2, with registers 0..h-1 indexing the rows. When M keeps
the two halves apart, as for X^x or a lone `mul`, `linear` is at most one
gather per axis; otherwise it gathers in row chunks, the source label
M^-1 (u - a) of each output label u being the digit-wise sum mod N of what
u's two halves contribute (an exclusive or over GF(2), else read from small
cached tables). Z^z is at most two broadcast multiplies by per-half phase
vectors.

`StateVector` is immutable: its gate methods copy the amplitudes once, run
the gate on the copy and return a new state. The circuits (`apply_pauli`,
`encode`, `decode_step`) run all their gates on one working buffer, with
the norm checked after every kernel call; a Pauli operator is a local phase
over the support of z and a `linear` shift by x. `encode_gates` and
`decode_gates` derive the gate lists for any parent from the matrices of
`qcc.encoding_matrices`, and `encode_eq1` and `decode_step_eq1` run them on
the paper's flagship parent.
"""

from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

from . import linalg
from .convcode import ConvCode, StateCapError, field_symbols, size_cap
from .gfpoly import PolyMatrix, is_prime
from .pauli import PauliWindow, _integer, _integers
from .qcc import encoding_matrices

DEFAULT_AMPLITUDE_CAP = 1 << 24
NORM_TOL = 1e-10
LOGICAL_TOL = 1e-9
# a Fourier kernel with at most this many amplitudes after its register
# runs as one GEMM with kron(F, I); above it, as a stacked matmul with F
_KRON_MAX_TRAILING = 16
# the label-permutation kernel gathers in row chunks of about this many
# amplitudes, and its digit-wise sum tables have at most this many entries
_LINEAR_CHUNK = 1 << 16
_SUM_TABLE_MAX = 1 << 16


def _check_dims(N: int, L: int) -> None:
    """Register dimension and amplitude cap, checked before any allocation."""
    if not is_prime(N):
        raise ValueError(f"register dimension must be prime, got {N}")
    if N**L > size_cap(None, DEFAULT_AMPLITUDE_CAP):
        raise StateCapError(f"state of {N}^{L} amplitudes exceeds the cap")


def _norm(amp: np.ndarray) -> float:
    # vdot flattens a contiguous array without copying it
    return float(np.sqrt(np.vdot(amp, amp).real))


def _check_norm(amp: np.ndarray) -> None:
    norm = _norm(amp)
    if abs(norm - 1.0) > NORM_TOL:
        raise ValueError(f"state norm {norm!r} is not 1")


def _basis_amp(N: int, L: int, labels: Sequence[int]) -> np.ndarray:
    _check_dims(N, L)
    labels = field_symbols(labels, N, "basis labels")
    if labels.shape != (L,):
        raise ValueError(f"a basis state of {L} registers needs {L} labels, "
                         f"got shape {labels.shape}")
    amp = np.zeros((N,) * L, dtype=np.complex128)
    amp[tuple(labels)] = 1.0
    return amp


def _omega(N: int) -> complex:
    return np.exp(2j * np.pi / N)


# in-place kernels -------------------------------------------------------------
#
# Each kernel takes a C-contiguous complex128 array of shape (N,) * L and
# overwrites it with the gate's output; reshaping such an array gives views.


def _check_reg(amp: np.ndarray, *regs: int) -> None:
    for r in regs:
        r = _integer(r, "register")
        if not 0 <= r < amp.ndim:
            raise IndexError(f"register {r} out of range for L={amp.ndim}")


def _label(amp: np.ndarray, N: int, reg: int | Sequence[int],
           a: int | Sequence[int]) -> np.ndarray:
    """The length-L vector holding a on register reg, or a[i] on register
    reg[i] for equal-length sequences of distinct registers, mod N."""
    regs, values = _integers(reg, "registers"), _integers(a, "a")
    if regs.ndim > 1 or regs.shape != values.shape:
        raise ValueError(f"registers {reg!r} and values {a!r} must be two integers "
                         "or two equal-length sequences")
    regs, values = regs.ravel(), values.ravel()
    _check_reg(amp, *regs)
    if len(set(regs.tolist())) < len(regs):
        raise ValueError(f"registers {reg!r} must be distinct")
    out = np.zeros(amp.ndim, dtype=np.int64)
    out[regs] = values % N
    return out


def _halves(amp: np.ndarray, N: int) -> tuple[np.ndarray, int]:
    """View of shape (N^h, N^(L-h)), h = L // 2, and h: registers 0..h-1
    index the rows, registers h..L-1 the columns."""
    h = amp.ndim // 2
    return amp.reshape(N**h, -1), h


def _dot_exponent(N: int, z: np.ndarray) -> np.ndarray:
    """e[u] = z . u mod N, for every label u of len(z) registers in C order."""
    e = np.zeros(1, dtype=np.int64)
    for s in z:
        e = ((e[:, None] + s * np.arange(N)) % N).ravel()
    return e


def _split1(amp: np.ndarray, N: int, reg: int) -> np.ndarray:
    """View of shape (before, N, after) with `reg` on axis 1."""
    return amp.reshape(N**reg, N, -1)


def _split2(amp: np.ndarray, N: int, lo: int, hi: int) -> np.ndarray:
    """View of shape (before, N, between, N, after) with `lo` on axis 1
    and `hi` on axis 3, lo < hi."""
    return amp.reshape(N**lo, N, N ** (hi - lo - 1), N, -1)


def _add_params(amp: np.ndarray, src: int, dst: int, scale: int = 1) -> tuple[int, int, int]:
    _check_reg(amp, src, dst)
    scale = _integer(scale, "scale")
    if src == dst:
        raise ValueError("source and destination must differ")
    return int(src), int(dst), scale


def _mul_params(amp: np.ndarray, N: int, reg: int, a: int) -> tuple[int, int]:
    _check_reg(amp, reg)
    a = _integer(a, "multiplier")
    if a % N == 0:
        raise ValueError("multiplier must be nonzero mod N")
    return int(reg), a % N


def _fourier(amp: np.ndarray, N: int, reg: int, inverse: bool = False) -> None:
    """|x> -> sum_y w^(xy) |y> / sqrt(N), w = exp(2 pi i / N); the inverse
    uses w^-1."""
    _check_reg(amp, reg)
    w = _omega(N) ** (-1 if inverse else 1)
    F = w ** np.outer(np.arange(N), np.arange(N)) / np.sqrt(N)
    view = _split1(amp, N, reg)
    after = view.shape[2]
    if after <= _KRON_MAX_TRAILING:
        # a stacked matmul would make one tiny product per leading index
        flat = amp.reshape(view.shape[0], -1)
        flat[...] = flat @ np.kron(F, np.eye(after)).T
    else:
        view[...] = np.matmul(F, view)


def _local_phase(amp: np.ndarray, N: int, reg: int | Sequence[int],
                 a: int | Sequence[int]) -> None:
    """|x> -> w^(a x) |x> on one register, or |x> -> w^(sum_i a[i] x[reg[i]]) |x>
    for a sequence: at most one broadcast multiply per half of the label."""
    z = _label(amp, N, reg, a)
    view, h = _halves(amp, N)
    powers = _omega(N) ** np.arange(N)
    if z[:h].any():
        view *= powers[_dot_exponent(N, z[:h])][:, None]
    if z[h:].any():
        view *= powers[_dot_exponent(N, z[h:])]


def _pair_phase(amp: np.ndarray, N: int, reg1: int, reg2: int, c: int = 1) -> None:
    """|x, y> -> w^(c x y) |x, y>."""
    _check_reg(amp, reg1, reg2)
    c = _integer(c, "c")
    if reg1 == reg2:
        raise ValueError("registers must differ")
    view = _split2(amp, N, min(reg1, reg2), max(reg1, reg2))
    w = _omega(N)
    for x in range(1, N):
        for y in range(1, N):
            e = (c * x * y) % N
            if e:
                view[:, x, :, y] *= w**e


def _labels_of(N: int, m: int) -> np.ndarray:
    """Every label of m registers in C order, one per column: shape (m, N^m)."""
    return np.indices((N,) * m).reshape(m, N**m)


@functools.lru_cache(maxsize=None)
def _digit_sum_table(N: int, g: int) -> np.ndarray:
    """t[a N^g + b] = the g-digit base-N number whose digits are those of a
    and b added mod N, for all a, b < N^g; read-only, as every call shares it."""
    place = N ** np.arange(g - 1, -1, -1)
    digits = _labels_of(N, g).T
    table = ((digits[:, None] + digits[None]) % N @ place).astype(np.int32).ravel()
    table.setflags(write=False)
    return table


def _group_size(N: int, L: int) -> int:
    """Source digits per group: all L over GF(2), where a digit-wise sum is
    an exclusive or; else the most whose digit-sum table has at most
    _SUM_TABLE_MAX entries, and at least one."""
    if N == 2:
        return L
    g = 1
    while N ** (2 * g + 2) <= _SUM_TABLE_MAX:
        g += 1
    return g


def _linear(amp: np.ndarray, N: int, M, a=None) -> None:
    """|v> -> |M v + a> for an L x L matrix M invertible mod N and a shift a
    of L labels, zero by default: output label u reads input label M^-1 (u - a).

    On the (N^h, N^(L-h)) view the source label of u is the digit-wise sum
    mod N of M^-1 (u_rows, 0) - M^-1 a and M^-1 (0, u_cols). When M keeps
    the two halves apart, the first gives the source row and the second the
    source column, so the gather is at most one per axis. Otherwise the
    source index is built one chunk of rows at a time, so no full-size index
    array exists: over GF(2) the sum of two indices is their exclusive or,
    else the digits go in groups small enough for a cached digit-wise sum
    table. The chunks are gathered into one scratch buffer that is copied
    back at the end."""
    L = amp.ndim
    M = _integers(M, "M") % N
    if M.shape != (L, L):
        raise ValueError(f"M must be a {L} x {L} matrix, got shape {M.shape}")
    inv = linalg.solve(M, np.eye(L, dtype=np.int64), N)
    if inv is None:
        raise ValueError(f"M is singular mod {N}")
    if not L:  # the one amplitude of zero registers has nowhere to go
        return
    view, h = _halves(amp, N)
    c = np.zeros(L, dtype=np.int64) if a is None else -(inv @ a)  # source of label 0
    u_rows, u_cols = _labels_of(N, h), _labels_of(N, L - h)
    if not (M[:h, h:].any() or M[h:, :h].any()):
        # so does M^-1: row u_rows reads row M^-1 (u_rows - a_rows), and
        # column u_cols reads column M^-1 (u_cols - a_cols)
        rows = N ** np.arange(h - 1, -1, -1) @ ((inv[:h, :h] @ u_rows + c[:h, None]) % N)
        cols = N ** np.arange(L - h - 1, -1, -1) @ ((inv[h:, h:] @ u_cols + c[h:, None]) % N)
        moved_rows = (rows != np.arange(len(rows))).any()
        src = np.take(view, rows, axis=0) if moved_rows else view
        if (cols != np.arange(len(cols))).any():
            # after a row gather the column gather reads that copy and writes
            # into the view, saving one copy; clip mode leaves `out` unbuffered
            src = np.take(src, cols, axis=1, mode="clip", out=view if moved_rows else None)
        if src is not view:
            view[...] = src
        return
    from_rows = (inv[:, :h] @ u_rows + c[:, None]) % N
    from_cols = inv[:, h:] @ u_cols % N
    g = _group_size(N, L)
    groups = []  # (place value, digit-sum table or None, row keys, column keys)
    for lo in range(0, L, g):
        size = min(g, L - lo)
        place = N ** np.arange(size - 1, -1, -1)
        table = None
        if N > 2 and N ** (2 * size) <= _SUM_TABLE_MAX:
            table = _digit_sum_table(N, size)
        scale = 1 if table is None else N**size
        groups.append((N**size, table, place @ from_rows[lo : lo + size] * scale,
                       place @ from_cols[lo : lo + size]))
    rows, cols = view.shape
    step = max(1, _LINEAR_CHUNK // cols)
    key = np.empty((step, cols), dtype=np.intp)
    part = np.empty((step, cols), dtype=np.int32)
    index = np.empty((step, cols), dtype=np.intp)
    flat, out = amp.reshape(-1), np.empty_like(view)
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        k, q, i = key[: r1 - r0], part[: r1 - r0], index[: r1 - r0]
        for n, (base, table, row_keys, col_keys) in enumerate(groups):
            if N == 2:
                digits = np.bitwise_xor(row_keys[r0:r1, None], col_keys, out=k)
            else:
                np.add(row_keys[r0:r1, None], col_keys, out=k)
                if table is None:  # one digit of a large N: its sum mod N directly
                    digits = np.remainder(k, N, out=k)
                else:
                    digits = np.take(table, k, out=q, mode="clip")
            if n:
                i *= base
                i += digits
            else:
                i[...] = digits
        np.take(flat, i, out=out[r0:r1], mode="clip")
    view[...] = out


_KERNELS = {
    "linear": _linear,
    "fourier": _fourier,
    "local-phase": _local_phase,
    "pair-phase": _pair_phase,
}


def _apply(amp: np.ndarray, N: int, op_kind: str, **params) -> None:
    """Run one elementary gate on `amp` in place, then check the norm."""
    try:
        kernel = _KERNELS[op_kind]
    except KeyError:
        raise ValueError(f"unknown elementary operation {op_kind!r}") from None
    kernel(amp, N, **params)
    _check_norm(amp)


class StateVector:
    """Normalized pure state of L dimension-N registers.

    `amp` is a read-only C-contiguous complex128 array of shape (N,) * L.
    Gate methods copy it once, run one in-place kernel on the copy and
    return a new state; no method changes the state it is called on.
    """

    __slots__ = ("N", "L", "amp")

    def __init__(self, N: int, L: int, amp: np.ndarray):
        _check_dims(N, L)
        amp = np.ascontiguousarray(amp, dtype=np.complex128).reshape((N,) * L)
        _check_norm(amp)
        amp.setflags(write=False)
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "amp", amp)

    def __setattr__(self, name, value):
        raise AttributeError(
            "StateVector is immutable; gate methods and circuits return new states"
        )

    @classmethod
    def basis(cls, N: int, L: int, labels: Sequence[int]) -> "StateVector":
        return cls(N, L, _basis_amp(N, L, labels))

    def _gate(self, op_kind: str, **params) -> "StateVector":
        return _run(self.amp.copy(), self.N, [(op_kind, params)])

    # elementary operations -------------------------------------------------

    def add_const(self, reg: int | Sequence[int], a: int | Sequence[int]) -> "StateVector":
        """|x> -> |x + a> on one register, or |x + a[i]> on each reg[i]."""
        return self._gate("add-const", reg=reg, a=a)

    def add(self, src: int, dst: int, scale: int = 1) -> "StateVector":
        """|x, y> -> |x, y + scale * x> for registers (src, dst)."""
        return self._gate("add", src=src, dst=dst, scale=scale)

    def mul(self, reg: int, a: int) -> "StateVector":
        """|x> -> |a x>, a invertible mod N."""
        return self._gate("mul", reg=reg, a=a)

    def linear(self, M) -> "StateVector":
        """|v> -> |M v>, M an L x L matrix invertible mod N."""
        return self._gate("linear", M=M)

    def fourier(self, reg: int, inverse: bool = False) -> "StateVector":
        """|x> -> sum_y w^(xy) |y> / sqrt(N)."""
        return self._gate("fourier", reg=reg, inverse=inverse)

    def local_phase(self, reg: int | Sequence[int], a: int | Sequence[int]) -> "StateVector":
        """|x> -> w^(a x) |x> on one register, or w^(sum_i a[i] x[reg[i]]) |x>."""
        return self._gate("local-phase", reg=reg, a=a)

    def pair_phase(self, reg1: int, reg2: int, c: int = 1) -> "StateVector":
        """|x, y> -> w^(c x y) |x, y>."""
        return self._gate("pair-phase", reg1=reg1, reg2=reg2, c=c)

    def apply_pauli(self, op: PauliWindow) -> "StateVector":
        """Apply tau^phase X^x Z^z (Z first, then X) as two kernel calls: one
        local phase over the registers where z is nonzero, then the label
        shift |v> -> |v + x>. A zero part is skipped, and so is the global
        phase when phase_exp is 0."""
        if op.L != self.L or op.p != self.N:
            raise ValueError("operator does not match the state")
        N = self.N
        buf = self.amp.copy()
        regs = np.flatnonzero(op.z)
        if len(regs):
            _apply(buf, N, "local-phase", reg=regs, a=op.z[regs])
        if op.x.any():
            _apply(buf, N, "linear", M=np.eye(self.L, dtype=np.int64), a=op.x)
        if op.phase_exp:
            tau = np.exp(1j * np.pi / N)
            buf *= tau**op.phase_exp
        return StateVector(N, self.L, buf)

    # readout ----------------------------------------------------------------

    def register_distribution(self, reg: int) -> np.ndarray:
        _check_reg(self.amp, reg)
        probs = np.abs(self.amp) ** 2
        axes = tuple(a for a in range(self.L) if a != reg)
        return probs.sum(axis=axes)

    def norm(self) -> float:
        return _norm(self.amp)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2, the phase-insensitive comparison used everywhere."""
    if (a.N, a.L) != (b.N, b.L):
        raise ValueError("states live on different registers")
    return float(abs(np.vdot(a.amp, b.amp)) ** 2)


# circuits from the parent's encoding matrices --------------------------------


def flagship(N: int) -> ConvCode:
    """The paper's rate-1/2 parent (1 + D^2, 1 + D + D^2) over GF(N)."""
    return ConvCode(PolyMatrix.from_coeffs([[[1, 0, 1], [1, 1, 1]]], N))


def _in_place(M: np.ndarray, p: int) -> list[tuple[str, dict]]:
    """Gates taking the register vector v to M v, M invertible over GF(p):
    the row operations of a Gauss-Jordan reduction of M to I, undone in
    reverse order. A zero pivot gets a lower row added and a pivot other
    than 1 one `mul`, so a unit lower triangular M costs one `add` per
    nonzero below its diagonal."""
    M = np.array(M, dtype=np.int64) % p
    undo: list[tuple[str, dict]] = []
    for c in range(len(M)):
        if not M[c, c]:
            r = c + int(np.flatnonzero(M[c:, c])[0])
            M[c] = (M[c] + M[r]) % p
            undo.append(("add", {"src": r, "dst": c, "scale": p - 1}))
        if M[c, c] != 1:
            undo.append(("mul", {"reg": c, "a": int(M[c, c])}))
            M[c] = M[c] * pow(int(M[c, c]), p - 2, p) % p
        col = M[:, c] * (np.arange(len(M)) != c)
        undo += [("add", {"src": c, "dst": int(r), "scale": int(col[r])})
                 for r in np.flatnonzero(col)]
        M = (M - np.outer(col, M[c])) % p
    return undo[::-1]


# the gates that permute labels by an affine map, and have no kernel of their own
_AFFINE = ("add-const", "add", "mul")


def _compose(amp: np.ndarray, N: int, gates) -> tuple[np.ndarray, np.ndarray]:
    """M and a, mod N, such that |v> -> |M v + a> is the action of the
    `add-const`, `add` and `mul` gates on the registers of `amp`, each
    gate's parameters checked before any amplitude moves."""
    L = amp.ndim
    Ma = np.eye(L, L + 1, dtype=np.int64)  # [M | a], transformed row by row
    for op_kind, params in gates:
        if op_kind == "add":
            src, dst, scale = _add_params(amp, **params)
            Ma[dst] = (Ma[dst] + scale * Ma[src]) % N
        elif op_kind == "mul":
            reg, a = _mul_params(amp, N, **params)
            Ma[reg] = Ma[reg] * a % N
        else:
            Ma[:, L] = (Ma[:, L] + _label(amp, N, **params)) % N
    return Ma[:, :L], Ma[:, L]


def _run(amp: np.ndarray, N: int, gates: list[tuple[str, dict]]) -> StateVector:
    """Run `gates` on `amp` in place and return the state: each maximal
    stretch of `add-const`, `add` and `mul` gates as one `linear` kernel
    call with the affine map they compose to, every other gate as its own
    kernel call."""
    for fused, stretch in itertools.groupby(gates, key=lambda gate: gate[0] in _AFFINE):
        if fused:
            M, a = _compose(amp, N, stretch)
            _apply(amp, N, "linear", M=M, a=a)
        else:
            for op_kind, params in stretch:
                _apply(amp, N, op_kind, **params)
    return StateVector(N, amp.ndim, amp)


def _layout(parent: ConvCode, T: int):
    """A and B of a T-block window, the register of each dummy and that of
    each info symbol: symbol c of either encoding's input sits on its output
    (c // k) n + S[c % k], S the pivot columns of the delay-0 taps."""
    k, n = parent.k, parent.n
    S = np.array(linalg.rref(parent.taps()[0], parent.p)[1], dtype=np.int64)
    if len(S) < k:
        raise ValueError("the parent's delay-0 taps are not of full rank")
    A, B = encoding_matrices(parent, T)
    dummy = np.arange(n * T) // k * n + S[np.arange(n * T) % k]
    return A, B, dummy, dummy[dummy[: k * T]]


def _with_columns(size: int, rows, cols, values) -> np.ndarray:
    """The identity with columns `cols`, all among `rows`, set to `values` on `rows`."""
    M = np.eye(size, dtype=np.int64)
    M[np.ix_(rows, cols)] = values
    return M


def encode_gates(parent: ConvCode, T: int) -> tuple[list[tuple[str, dict]], np.ndarray, int]:
    """The encoder's gates on a T-block window, the register of each info
    symbol and the number of registers L = n^2 T / k. With A and B the two
    encoding matrices, one in-place pass puts A x on the dummy registers, a
    Fourier transform on each makes the sum over P of w^((A x).P) |P>, and a
    second pass maps P to B P."""
    N = parent.p
    A, B, dummy, regs = _layout(parent, T)
    L = len(B)
    gates = _in_place(_with_columns(L, dummy, regs, A), N)
    gates += [("fourier", {"reg": int(r)}) for r in dummy]
    gates += _in_place(_with_columns(L, range(L), dummy, B), N)
    return gates, regs, L


def encode(parent: ConvCode, info: Sequence[int]) -> StateVector:
    """Encode k T info qudits into n^2 T / k registers, block i on registers
    i R .. (i + 1) R - 1, R = n^2 / k, by the gates of `encode_gates`."""
    N, k = parent.p, parent.k
    x = field_symbols(info, N, "info symbols")
    if len(x) % k:
        raise ValueError(f"info length must be a multiple of k={k}")
    gates, regs, L = encode_gates(parent, len(x) // k)
    labels = np.zeros(L, dtype=np.int64)
    labels[regs] = x
    return _run(_basis_amp(N, L, labels), N, gates)


def _check_blocks(parent: ConvCode, N: int, L: int) -> None:
    k, n, R = parent.k, parent.n, parent.n**2 // parent.k
    if n % k or N != parent.p or not L or L % R:
        raise ValueError(f"decode_step needs k | n (k={k}, n={n}) and a state of whole "
                         f"blocks of {R} registers over GF({parent.p})")


def decode_gates(parent: ConvCode, L: int) -> tuple[list[tuple[str, dict]], np.ndarray]:
    """The gates that split block 1 (R = n^2 / k registers) off an encoded
    state of L registers, and the registers of block 1's info x1. With k | n,
    A = [[A11, 0], [A21, A22]] and B = [[B11, 0], [B21, B22]] on block 1's
    dummies P1 and the tail's P'. One pass leaves P1 on block 1's dummy
    registers, 0 on its others and B22 P' on the tail; inverse Fourier
    transforms give |A11 x1>; the inverse of block 1's first pass gives
    |x1>; and a pair phase per nonzero of u, B22^T u = A21 e_a, removes the
    coupling w^(x1 . A21^T P')."""
    N, k, n = parent.p, parent.k, parent.n
    _check_blocks(parent, N, L)
    R = n * n // k
    A, B, dummy, regs = _layout(parent, L // R)
    d1, x1 = dummy[:n], regs[:k]
    split = _with_columns(L, range(L), d1, B[:, :n])
    gates = _in_place(linalg.solve(split, np.eye(L, dtype=np.int64), N), N)
    gates += [("fourier", {"reg": int(r), "inverse": True}) for r in d1]
    first = _with_columns(R, d1, x1, A[:n, :k])
    gates += _in_place(linalg.solve(first, np.eye(R, dtype=np.int64), N), N)
    for a in range(k if L > R else 0):
        u = linalg.solve_localized(B[R:, n:].T, A[n:, a], N, center=0, halfwidth=R)
        gates += [("pair-phase", {"reg1": int(x1[a]), "reg2": R + int(s), "c": int(-u[s] % N)})
                  for s in np.flatnonzero(u)]
    return gates, x1


def decode_step(parent: ConvCode, state: StateVector) -> tuple[StateVector, StateVector]:
    """Split block 1 (R = n^2 / k registers, info x1) off an encoded state by
    the gates of `decode_gates`: returns |x1 on its info registers, 0
    elsewhere> and the encoding of the other blocks' info."""
    N, L, R = parent.p, state.L, parent.n**2 // parent.k
    _check_blocks(parent, state.N, L)
    gates, x1 = decode_gates(parent, L)
    rows = _run(state.amp.copy(), N, gates).amp.reshape(N**R, -1)
    weights = np.array([np.vdot(row, row).real for row in rows])
    top = int(np.argmax(weights))
    labels = np.unravel_index(top, (N,) * R)
    if abs(weights[top] - 1.0) > LOGICAL_TOL or any(np.delete(labels, x1)):
        raise ValueError("malformed input: block 1 is not one basis state of the code")
    rest = StateVector(N, L - R, rows[top] / np.sqrt(weights[top]))
    return StateVector.basis(N, R, labels), rest


def encode_eq1(info: Sequence[int], N: int, T: int | None = None) -> StateVector:
    """`encode` on the flagship over GF(N): the rate-1/4 circuit derived from
    its `encoding_matrix`, block i on registers 4i..4i+3, info i on 4i."""
    if T is not None and len(info) != T:
        raise ValueError("info length must equal T")
    return encode(flagship(N), info)


def decode_step_eq1(state: StateVector, N: int, T: int) -> tuple[StateVector, StateVector]:
    """`decode_step`, derived from `encoding_matrix`, on the flagship over
    GF(N): the block is |k1, 0, 0, 0>, the rest `encode_eq1` of the others."""
    if state.L != 4 * T or state.N != N:
        raise ValueError("state shape does not match N, T")
    return decode_step(flagship(N), state)


def verify_logical(op: PauliWindow, info: Sequence[int], expected_info_delta: Sequence[int],
                   N: int, T: int | None = None) -> bool:
    """True iff op maps the flagship codeword of `info` to the codeword of
    info + expected_info_delta, up to global phase."""
    if len(expected_info_delta) != len(info):
        raise ValueError(f"expected_info_delta has {len(expected_info_delta)} symbols, "
                         f"info has {len(info)}")
    before = encode_eq1(info, N, T)
    target = encode_eq1([(a + b) % N for a, b in zip(info, expected_info_delta)], N, T)
    return fidelity(before.apply_pauli(op), target) >= 1 - LOGICAL_TOL
