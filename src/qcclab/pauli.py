"""Generalized Pauli operators on a register window, in symplectic form.

An operator on L dimension-p registers is tau^phase * X^x Z^z with x, z
in Z_p^L and tau = exp(i*pi/p), so phases live in Z_{2p}. Register j acts
as I, X, Z, Y for (x_j, z_j) = (0,0), (1,0), (0,1), (1,1) when p = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import linalg
from .gfpoly import is_prime

_CHARS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
_PAIRS = {v: k for k, v in _CHARS.items()}


class PauliWindow:
    """Immutable generalized Pauli operator on L registers."""

    __slots__ = ("x", "z", "p", "phase_exp")

    def __init__(self, x, z, p: int, phase_exp: int = 0):
        if not is_prime(p):
            raise ValueError(f"register dimension must be prime, got {p}")
        x = np.asarray(x, dtype=np.int64) % p
        z = np.asarray(z, dtype=np.int64) % p
        if x.shape != z.shape or x.ndim != 1:
            raise ValueError("x and z must be equal-length vectors")
        x.setflags(write=False)
        z.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "phase_exp", phase_exp % (2 * p))

    def __setattr__(self, name, value):
        raise AttributeError("PauliWindow is immutable")

    @property
    def L(self) -> int:
        return len(self.x)

    @classmethod
    def identity(cls, L: int, p: int) -> "PauliWindow":
        return cls(np.zeros(L), np.zeros(L), p)

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


class ResidualKind(Enum):
    IDENTITY = "identity"
    STABILIZER = "stabilizer"
    LOGICAL_ERROR = "logical-error"


@dataclass(frozen=True)
class ResidualReport:
    kind: ResidualKind
    affected: tuple[int, ...] = ()


class StabilizerWindow:
    """Stabilizer generators plus paired logical operators on a window.

    Construction validates mutual commutation of the generators and the
    symplectic pairing of the logicals: logical_x[i] anticommutes with
    logical_z[i] only, and everything commutes with the generators.
    """

    def __init__(
        self,
        generators: Sequence[PauliWindow],
        logical_x: Sequence[PauliWindow] = (),
        logical_z: Sequence[PauliWindow] = (),
        L: int | None = None,
        p: int | None = None,
    ):
        ops = list(generators) + list(logical_x) + list(logical_z)
        if not ops and (L is None or p is None):
            raise ValueError("empty stabilizer needs explicit L and p")
        self.L = L if L is not None else ops[0].L
        self.p = p if p is not None else ops[0].p
        for op in ops:
            if op.L != self.L or op.p != self.p:
                raise ValueError("operator dimension mismatch in stabilizer window")
        self.generators = tuple(generators)
        self.logical_x = tuple(logical_x)
        self.logical_z = tuple(logical_z)
        if len(self.logical_x) != len(self.logical_z):
            raise ValueError("logical_x and logical_z must pair up")
        self._validate()
        self._gen_matrix = (
            np.array([g.symplectic() for g in self.generators], dtype=np.int64)
            if self.generators
            else np.zeros((0, 2 * self.L), dtype=np.int64)
        )

    def _validate(self) -> None:
        """Check every symplectic product at once, from the Gram matrix
        S[a, b] = <x_a, z_b> - <z_a, x_b> mod p of the generators, then
        logical_x, then logical_z. A failure raises the message that
        checking the pairs one at a time would raise first: each generator
        against the later generators and then the logicals, then the
        logical pairing, then logical_x, then logical_z."""
        n_gen, n_log = len(self.generators), len(self.logical_x)
        ops = self.generators + self.logical_x + self.logical_z
        X = np.array([op.x for op in ops], dtype=np.int64).reshape(len(ops), self.L)
        Z = np.array([op.z for op in ops], dtype=np.int64).reshape(len(ops), self.L)
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
        if not self.generators:
            return np.zeros(0, dtype=np.int64)
        gx = self._gen_matrix[:, : self.L]
        gz = self._gen_matrix[:, self.L :]
        return (gz @ error.x - gx @ error.z) % self.p

    def logical_action(self, op: PauliWindow) -> tuple[int, ...]:
        """Indices of logical pairs op acts on (nonzero symplectic product)."""
        hit = []
        for i, (lx, lz) in enumerate(zip(self.logical_x, self.logical_z)):
            if op.sym_product(lz) or op.sym_product(lx):
                hit.append(i)
        return tuple(hit)

    def classify_residual(self, residual: PauliWindow) -> ResidualReport:
        """Classify a syndrome-free residual; phases are ignored."""
        if self.syndrome(residual).any():
            raise ValueError("residual has nonzero syndrome")
        if residual.is_identity():
            return ResidualReport(ResidualKind.IDENTITY)
        affected = self.logical_action(residual)
        if affected:
            return ResidualReport(ResidualKind.LOGICAL_ERROR, affected)
        if linalg.in_rowspan(residual.symplectic(), self._gen_matrix, self.p):
            return ResidualReport(ResidualKind.STABILIZER)
        # commutes with generators and logicals but outside the group: only
        # possible if the listed logicals do not span the full logical algebra
        return ResidualReport(ResidualKind.LOGICAL_ERROR, ())
