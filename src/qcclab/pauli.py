"""Generalized Pauli operators on a register window, in symplectic form,
and the stabilizer tableau of a window.

An operator on L dimension-p registers is tau^phase * X^x Z^z with x, z
in Z_p^L and tau = exp(i*pi/p), so phases live in Z_{2p}. Register j acts
as I, X, Z, Y for (x_j, z_j) = (0,0), (1,0), (0,1), (1,1) when p = 2.
`StabilizerWindow` keeps a window's operators as the rows (x | z) of
integer matrices, a tableau in the sense of Aaronson and Gottesman
(quant-ph/0406196), and hands out `PauliWindow` views of them.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .gfpoly import is_prime

_CHARS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_PAIRS = {v: k for k, v in _CHARS.items()}


def _integers(value, what: str) -> np.ndarray:
    """`value` as an int64 array, or TypeError naming `what` unless it holds
    integers only."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biu" and arr.size:
        raise TypeError(f"{what} must be integers, got {value!r}")
    return arr.astype(np.int64)


def _integer(value, what: str) -> int:
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return int(value)


class PauliWindow:
    """Immutable generalized Pauli operator on L registers; x, z and the
    phase exponent must be integers, else TypeError."""

    __slots__ = ("x", "z", "p", "phase_exp")

    def __init__(self, x, z, p: int, phase_exp: int = 0):
        if not is_prime(p):
            raise ValueError(f"register dimension must be prime, got {p}")
        x = _integers(x, "x") % p
        z = _integers(z, "z") % p
        if x.shape != z.shape or x.ndim != 1:
            raise ValueError("x and z must be equal-length vectors")
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "phase_exp", _integer(phase_exp, "phase_exp") % (2 * p))

    def __setattr__(self, name, value):
        raise AttributeError("PauliWindow is immutable")

    @property
    def L(self) -> int:
        return len(self.x)

    @classmethod
    def identity(cls, L: int, p: int) -> "PauliWindow":
        zeros = np.zeros(L, dtype=np.int64)
        return cls(zeros, zeros, p)

    @classmethod
    def from_string(cls, s: str, p: int = 2) -> "PauliWindow":
        """Parse an I/X/Z/Y string (p = 2 only)."""
        if p != 2:
            raise ValueError("string form is defined for p = 2 only")
        try:
            pairs = [_PAIRS[c] for c in s.upper()]
        except KeyError as exc:
            raise ValueError(f"invalid Pauli character {exc.args[0]!r}") from None
        return cls([a for a, _ in pairs], [b for _, b in pairs], 2)

    def to_string(self) -> str:
        if self.p != 2:
            raise ValueError("string form is defined for p = 2 only")
        return "".join(_CHARS[(int(a), int(b))] for a, b in zip(self.x, self.z))

    def to_json(self) -> dict:
        return {"x": self.x.tolist(), "z": self.z.tolist(), "phase": self.phase_exp}

    def _check(self, other: "PauliWindow") -> None:
        if self.L != other.L or self.p != other.p:
            raise ValueError("operator dimension mismatch")

    def compose(self, other: "PauliWindow") -> "PauliWindow":
        """Operator product self * other (other applied first)."""
        self._check(other)
        cross = 2 * int(self.z @ other.x)  # Z^z past X^x in tau units
        return PauliWindow(
            self.x + other.x,
            self.z + other.z,
            self.p,
            self.phase_exp + other.phase_exp + cross,
        )

    def __mul__(self, other: "PauliWindow") -> "PauliWindow":
        return self.compose(other)

    def inverse(self) -> "PauliWindow":
        inv = PauliWindow(-self.x, -self.z, self.p)
        cross = 2 * int(inv.z @ self.x)
        return PauliWindow(inv.x, inv.z, self.p, -self.phase_exp - cross)

    def sym_product(self, other: "PauliWindow") -> int:
        """Symplectic form <x1, z2> - <z1, x2> mod p; 0 iff commuting."""
        self._check(other)
        return int(self.x @ other.z - self.z @ other.x) % self.p

    def commutes(self, other: "PauliWindow") -> bool:
        return self.sym_product(other) == 0

    def weight(self) -> int:
        return int(np.count_nonzero((self.x != 0) | (self.z != 0)))

    def is_identity(self) -> bool:
        return not (self.x.any() or self.z.any())

    def symplectic(self) -> np.ndarray:
        """Concatenated (x | z) vector of length 2L."""
        return np.concatenate([self.x, self.z])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PauliWindow)
            and self.p == other.p
            and self.phase_exp == other.phase_exp
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self) -> int:
        return hash((self.x.tobytes(), self.z.tobytes(), self.p, self.phase_exp))

    def __repr__(self) -> str:
        if self.p == 2:
            return f"PauliWindow({self.to_string()!r})"
        return f"PauliWindow(x={self.x.tolist()}, z={self.z.tolist()}, p={self.p})"


class StabilizerWindow:
    """Stabilizer generators plus paired logical operators on a window, as
    three integer matrices of (x | z) rows with 2L columns each: the
    generators, logical_x and logical_z, stored read-only and reduced mod
    p as `gen_matrix`, `logical_x_matrix` and `logical_z_matrix`. A matrix
    may have no rows. `generators`, `logical_x` and `logical_z` are the
    same rows as `PauliWindow` operators.

    Construction validates mutual commutation of the generators and the
    symplectic pairing of the logicals: logical_x[i] anticommutes with
    logical_z[i] only, and everything commutes with the generators.
    """

    def __init__(self, generators, logical_x, logical_z, p: int):
        if not is_prime(p):
            raise ValueError(f"register dimension must be prime, got {p}")
        mats = [_integers(m, what) % p for m, what in
                ((generators, "generators"), (logical_x, "logical_x"), (logical_z, "logical_z"))]
        if any(m.ndim != 2 or m.shape[1] != mats[0].shape[1] for m in mats) or mats[0].shape[1] % 2:
            raise ValueError("operator dimension mismatch in stabilizer window")
        if len(mats[1]) != len(mats[2]):
            raise ValueError("logical_x and logical_z must pair up")
        for m in mats:
            m.setflags(write=False)
        self.gen_matrix, self.logical_x_matrix, self.logical_z_matrix = mats
        self.L = mats[0].shape[1] // 2
        self.p = p
        self._validate()

    def _views(self, rows: np.ndarray) -> tuple[PauliWindow, ...]:
        return tuple(PauliWindow(r[: self.L], r[self.L :], self.p) for r in rows)

    @cached_property
    def generators(self) -> tuple[PauliWindow, ...]:
        return self._views(self.gen_matrix)

    @cached_property
    def logical_x(self) -> tuple[PauliWindow, ...]:
        return self._views(self.logical_x_matrix)

    @cached_property
    def logical_z(self) -> tuple[PauliWindow, ...]:
        return self._views(self.logical_z_matrix)

    def _validate(self) -> None:
        """Check every symplectic product at once, from the Gram matrix
        S[a, b] = <x_a, z_b> - <z_a, x_b> mod p of the generators, then
        logical_x, then logical_z. A failure raises the message that
        checking the pairs one at a time would raise first: each generator
        against the later generators and then the logicals, then the
        logical pairing, then logical_x, then logical_z."""
        n_gen, n_log = len(self.gen_matrix), len(self.logical_x_matrix)
        ops = np.concatenate([self.gen_matrix, self.logical_x_matrix, self.logical_z_matrix])
        X, Z = ops[:, : self.L], ops[:, self.L :]
        S = (X @ Z.T - Z @ X.T) % self.p
        gen_rows = S[:n_gen] != 0
        # each generator against the later generators, then all logicals
        bad_gen = np.triu(gen_rows[:, :n_gen], 1).any(axis=1)
        bad_log = gen_rows[:, n_gen:].any(axis=1)
        for bad_g, bad_l in zip(bad_gen, bad_log):
            if bad_g:
                raise ValueError("stabilizer generators must mutually commute")
            if bad_l:
                raise ValueError("logicals must commute with the stabilizer")
        xs, zs = slice(n_gen, n_gen + n_log), slice(n_gen + n_log, len(ops))
        if ((S[xs, zs] == 0) == np.eye(n_log, dtype=bool)).any():
            raise ValueError("logical pairs must anticommute exactly on matching indices")
        if S[xs, xs].any():
            raise ValueError("logical_x operators must mutually commute")
        if S[zs, zs].any():
            raise ValueError("logical_z operators must mutually commute")

    def syndrome(self, error: PauliWindow) -> np.ndarray:
        """Symplectic product of the error with each generator, mod p."""
        if error.L != self.L or error.p != self.p:
            raise ValueError("error dimension mismatch")
        gx, gz = self.gen_matrix[:, : self.L], self.gen_matrix[:, self.L :]
        return (gz @ error.x - gx @ error.z) % self.p
