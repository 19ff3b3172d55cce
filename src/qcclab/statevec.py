"""Dense qudit state-vector engine for desk-scale circuit verification.

Amplitudes are a C-contiguous complex128 array of shape (N,) * L with
register j on axis j. Every elementary gate is one in-place kernel on such
an array: constant and controlled additions, multiplications, discrete
Fourier transforms, and local or two-register phase multiplications. A
kernel validates its parameters before it writes, reshapes the array into
views with the registers it acts on as separate axes, and writes back into
the same buffer, so the layout stays contiguous.

`StateVector` is immutable: its gate methods copy the amplitudes once, run
one kernel on the copy and return a new state. The circuits (`apply_pauli`,
`encode_eq1`, `decode_step_eq1`) run all their gates on one working buffer
and build one `StateVector` at the end. The norm is checked after every
gate, inside circuits too.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .convcode import StateCapError, size_cap
from .gfpoly import is_prime
from .pauli import PauliWindow

DEFAULT_AMPLITUDE_CAP = 1 << 24
NORM_TOL = 1e-10
LOGICAL_TOL = 1e-9
# a Fourier kernel with at most this many amplitudes after its register
# runs as one GEMM with kron(F, I); above it, as a stacked matmul with F
_KRON_MAX_TRAILING = 16


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
    amp = np.zeros((N,) * L, dtype=np.complex128)
    amp[tuple(int(v) % N for v in labels)] = 1.0
    return amp


def _omega(N: int) -> complex:
    return np.exp(2j * np.pi / N)


# in-place kernels -------------------------------------------------------------
#
# Each kernel takes a C-contiguous complex128 array of shape (N,) * L and
# overwrites it with the gate's output; reshaping such an array gives views.


def _check_reg(amp: np.ndarray, *regs: int) -> None:
    for r in regs:
        if not 0 <= r < amp.ndim:
            raise IndexError(f"register {r} out of range for L={amp.ndim}")


def _split1(amp: np.ndarray, N: int, reg: int) -> np.ndarray:
    """View of shape (before, N, after) with `reg` on axis 1."""
    return amp.reshape(N**reg, N, -1)


def _split2(amp: np.ndarray, N: int, lo: int, hi: int) -> np.ndarray:
    """View of shape (before, N, between, N, after) with `lo` on axis 1
    and `hi` on axis 3, lo < hi."""
    return amp.reshape(N**lo, N, N ** (hi - lo - 1), N, -1)


def _add_const(amp: np.ndarray, N: int, reg: int, a: int) -> None:
    """|x> -> |x + a> on one register."""
    _check_reg(amp, reg)
    if a % N:
        view = _split1(amp, N, reg)
        view[...] = np.roll(view, a % N, axis=1)


def _add(amp: np.ndarray, N: int, src: int, dst: int, scale: int = 1) -> None:
    """|x, y> -> |x, y + scale * x> for registers (src, dst)."""
    _check_reg(amp, src, dst)
    if src == dst:
        raise ValueError("source and destination must differ")
    view = _split2(amp, N, min(src, dst), max(src, dst))
    for v in range(1, N):
        shift = (scale * v) % N
        if not shift:
            continue
        if src < dst:
            part, axis = view[:, v], 2  # axes (before, between, dst, after)
        else:
            part, axis = view[:, :, :, v], 1  # axes (before, dst, between, after)
        part[...] = np.roll(part, shift, axis=axis)


def _mul(amp: np.ndarray, N: int, reg: int, a: int) -> None:
    """|x> -> |a x>, a invertible mod N."""
    _check_reg(amp, reg)
    if a % N == 0:
        raise ValueError("multiplier must be nonzero mod N")
    a_inv = pow(a % N, N - 2, N)
    view = _split1(amp, N, reg)
    view[...] = view[:, [(a_inv * y) % N for y in range(N)]]


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


def _local_phase(amp: np.ndarray, N: int, reg: int, a: int) -> None:
    """|x> -> w^(a x) |x>."""
    _check_reg(amp, reg)
    view = _split1(amp, N, reg)
    w = _omega(N)
    for x in range(1, N):
        e = (a * x) % N
        if e:
            view[:, x] *= w**e


def _pair_phase(amp: np.ndarray, N: int, reg1: int, reg2: int, c: int = 1) -> None:
    """|x, y> -> w^(c x y) |x, y>."""
    _check_reg(amp, reg1, reg2)
    if reg1 == reg2:
        raise ValueError("registers must differ")
    view = _split2(amp, N, min(reg1, reg2), max(reg1, reg2))
    w = _omega(N)
    for x in range(1, N):
        for y in range(1, N):
            e = (c * x * y) % N
            if e:
                view[:, x, :, y] *= w**e


_KERNELS = {
    "add-const": _add_const,
    "add": _add,
    "mul": _mul,
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
        out = self.amp.copy()
        _apply(out, self.N, op_kind, **params)
        return StateVector(self.N, self.L, out)

    # elementary operations -------------------------------------------------

    def add_const(self, reg: int, a: int) -> "StateVector":
        """|x> -> |x + a> on one register."""
        return self._gate("add-const", reg=reg, a=a)

    def add(self, src: int, dst: int, scale: int = 1) -> "StateVector":
        """|x, y> -> |x, y + scale * x> for registers (src, dst)."""
        return self._gate("add", src=src, dst=dst, scale=scale)

    def mul(self, reg: int, a: int) -> "StateVector":
        """|x> -> |a x>, a invertible mod N."""
        return self._gate("mul", reg=reg, a=a)

    def fourier(self, reg: int, inverse: bool = False) -> "StateVector":
        """|x> -> sum_y w^(xy) |y> / sqrt(N)."""
        return self._gate("fourier", reg=reg, inverse=inverse)

    def local_phase(self, reg: int, a: int) -> "StateVector":
        """|x> -> w^(a x) |x>."""
        return self._gate("local-phase", reg=reg, a=a)

    def pair_phase(self, reg1: int, reg2: int, c: int = 1) -> "StateVector":
        """|x, y> -> w^(c x y) |x, y>."""
        return self._gate("pair-phase", reg1=reg1, reg2=reg2, c=c)

    def apply_pauli(self, op: PauliWindow) -> "StateVector":
        """Apply tau^phase X^x Z^z (Z first, then X)."""
        if op.L != self.L or op.p != self.N:
            raise ValueError("operator does not match the state")
        N = self.N
        buf = self.amp.copy()
        for j in range(self.L):
            if op.z[j]:
                _apply(buf, N, "local-phase", reg=j, a=int(op.z[j]))
        for j in range(self.L):
            if op.x[j]:
                _apply(buf, N, "add-const", reg=j, a=int(op.x[j]))
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


def apply_elementary(state: StateVector, op_kind: str, **params) -> StateVector:
    """Dispatch by elementary-operation name; see the gate methods."""
    return state._gate(op_kind, **params)


# the flagship rate-1/4 encoding ---------------------------------------------


def encode_eq1(info: Sequence[int], N: int, T: int | None = None) -> StateVector:
    """Encode T info qudits into 4T registers with the explicit two-pass
    circuit: convolve the info stream ((1+D^2, 1+D+D^2) taps), Fourier the
    two streams, then convolve the flattened dummy stream the same way.

    Block i occupies registers 4i..4i+3 (0-based).
    """
    if T is None:
        T = len(info)
    if len(info) != T:
        raise ValueError("info length must equal T")
    labels = []
    for v in info:
        if not 0 <= v < N:
            raise ValueError(f"symbol {v} out of range")
        labels.extend([v, 0, 0, 0])
    buf = _basis_amp(N, 4 * T, labels)

    def r(i: int, j: int) -> int:  # block i (1-based), slot j in 1..4
        return 4 * (i - 1) + (j - 1)

    def add(src: int, dst: int) -> None:
        _apply(buf, N, "add", src=src, dst=dst)

    # first pass: slot3 <- k_i + k_{i-1} + k_{i-2}, then slot1 <- k_i + k_{i-2}
    for i in range(1, T + 1):
        for d in (0, 1, 2):
            if i - d >= 1:
                add(r(i - d, 1), r(i, 3))
    for i in range(T, 0, -1):
        if i - 2 >= 1:
            add(r(i - 2, 1), r(i, 1))
    # local Fourier introduces the dummy pair (slot1, slot3) per block
    for i in range(1, T + 1):
        _apply(buf, N, "fourier", reg=r(i, 1))
        _apply(buf, N, "fourier", reg=r(i, 3))
    # second pass on the flattened dummy stream (slot1, slot3 alternating)
    for i in range(1, T + 1):
        add(r(i, 1), r(i, 2))
        if i >= 2:
            add(r(i - 1, 1), r(i, 2))
            add(r(i - 1, 3), r(i, 2))
        add(r(i, 3), r(i, 4))
        add(r(i, 1), r(i, 4))
        if i >= 2:
            add(r(i - 1, 3), r(i, 4))
    for i in range(T, 0, -1):
        if i >= 2:
            add(r(i - 1, 1), r(i, 1))
            add(r(i - 1, 3), r(i, 3))
    return StateVector(N, 4 * T, buf)


def decode_step_eq1(state: StateVector, N: int, T: int) -> tuple[StateVector, StateVector]:
    """Extract the first info qudit from an encoded state.

    Register subtractions disentangle block 1, an inverse Fourier turns the
    first register into |k_1>, a phase correction strips the residual
    coupling, and a final Fourier clears the third register. Returns the
    extracted four-register block and the remainder, which equals the
    encoding of the remaining T - 1 symbols.
    """
    if state.L != 4 * T or state.N != N:
        raise ValueError("state shape does not match N, T")
    minus = N - 1
    buf = state.amp.copy()

    def sub(src: int, dst: int) -> None:
        _apply(buf, N, "add", src=src, dst=dst, scale=minus)

    sub(0, 1)  # f2 -= f1
    sub(0, 3)  # f4 -= f1 + f3
    sub(2, 3)
    if T >= 2:
        sub(0, 4)  # f5 -= f1
        sub(0, 5)  # f6 -= f1 + f3
        sub(2, 5)
        sub(2, 6)  # f7 -= f3
        sub(2, 7)  # f8 -= f3
    _apply(buf, N, "fourier", reg=0, inverse=True)
    # residual phase w^(k1 * (q1 + q2 + p3 + q3)): register 3 carries q1 and,
    # when present, register 12 carries q3 + q2 + p3 (register 7 carries q2
    # alone when the stream ends at T = 2)
    _apply(buf, N, "pair-phase", reg1=0, reg2=2, c=minus)
    if T >= 3:
        _apply(buf, N, "pair-phase", reg1=0, reg2=11, c=minus)
    elif T == 2:
        _apply(buf, N, "pair-phase", reg1=0, reg2=6, c=minus)
    _apply(buf, N, "fourier", reg=2)

    marg = np.array([np.vdot(row, row).real for row in buf.reshape(N, -1)])
    k1 = int(np.argmax(marg))
    if abs(marg[k1] - 1.0) > 1e-9:
        raise ValueError("malformed input: first register is not deterministic")
    block = StateVector.basis(N, 4, (k1, 0, 0, 0))
    rest = buf[(k1, 0, 0, 0)]
    nrm = _norm(rest)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError("malformed input: block 1 failed to disentangle")
    remainder = StateVector(N, 4 * (T - 1), rest / nrm)
    return block, remainder


def verify_logical(
    op: PauliWindow,
    info: Sequence[int],
    expected_info_delta: Sequence[int],
    N: int,
    T: int | None = None,
) -> bool:
    """True iff op maps the codeword of `info` to the codeword of
    info + expected_info_delta, up to global phase."""
    if T is None:
        T = len(info)
    before = encode_eq1(info, N, T)
    target_info = [(a + b) % N for a, b in zip(info, expected_info_delta)]
    target = encode_eq1(target_info, N, T)
    return fidelity(before.apply_pauli(op), target) >= 1 - LOGICAL_TOL
