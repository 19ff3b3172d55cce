"""Exact arithmetic over GF(p) and GF(p)[D].

Polynomials in the delay variable D are stored as coefficient tuples,
lowest degree first, with no trailing zeros ([] is the zero polynomial).
Polynomial matrices carry determinants, minors, the Massey-Sain
catastrophicity test and right-inverse synthesis for encoder matrices.

Only prime moduli are supported; extension fields are out of scope.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

DEGREE_CAP = 64


class DegreeOverflowError(ArithmeticError):
    """Intermediate polynomial degree exceeded the configured cap."""


class RankDeficientError(ValueError):
    """Generator matrix is not full row rank over the rational function field."""


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"modulus must be prime, got {p}")


class Poly:
    """Polynomial over GF(p) in the delay variable D, canonical form."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs: Iterable[int], p: int):
        _check_prime(p)
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls, p: int) -> "Poly":
        return cls((), p)

    @classmethod
    def one(cls, p: int) -> "Poly":
        return cls((1,), p)

    @classmethod
    def monomial(cls, degree: int, p: int, coeff: int = 1) -> "Poly":
        return cls([0] * degree + [coeff], p)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monomial(self) -> bool:
        """True iff exactly one nonzero coefficient (a scalar times D^l)."""
        return len(self.coeffs) >= 1 and all(c == 0 for c in self.coeffs[:-1])

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = pow(self.leading(), self.p - 2, self.p)
        return Poly((c * inv for c in self.coeffs), self.p)

    def _check(self, other: "Poly") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            ((self[i] + other[i]) for i in range(n)),
            self.p,
        )

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(((self[i] - other[i]) for i in range(n)), self.p)

    def __neg__(self) -> "Poly":
        return Poly((-c for c in self.coeffs), self.p)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.p)
        deg = self.degree + other.degree
        if deg > DEGREE_CAP:
            raise DegreeOverflowError(
                f"product degree {deg} exceeds cap {DEGREE_CAP}"
            )
        out = [0] * (deg + 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % self.p
        return Poly(out, self.p)

    def scale(self, c: int) -> "Poly":
        return Poly((c * a for a in self.coeffs), self.p)

    def shift(self, l: int) -> "Poly":
        """Multiply by D^l."""
        if self.is_zero():
            return self
        return Poly((0,) * l + self.coeffs, self.p)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        inv = pow(other.leading(), self.p - 2, self.p)
        for i in range(len(rem) - len(other.coeffs), -1, -1):
            c = (rem[i + other.degree] * inv) % self.p
            if c == 0:
                continue
            q[i] = c
            for j, b in enumerate(other.coeffs):
                rem[i + j] = (rem[i + j] - c * b) % self.p
        return Poly(q, self.p), Poly(rem, self.p)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.p))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "D" if i == 1 else f"D^{i}"
                terms.append(base if c == 1 else f"{c}*{base}")
        return " + ".join(terms)

    def to_json(self) -> list[int]:
        return list(self.coeffs)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    a._check(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Return (g, s, t) with s*a + t*b = g, g the monic gcd."""
    a._check(b)
    p = a.p
    r0, r1 = a, b
    s0, s1 = Poly.one(p), Poly.zero(p)
    t0, t1 = Poly.zero(p), Poly.one(p)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    inv = pow(r0.leading(), p - 2, p)
    return r0.monic(), s0.scale(inv), t0.scale(inv)


class PolyMatrix:
    """Matrix over GF(p)[D], row-major and immutable."""

    __slots__ = ("rows", "cols", "entries", "p")

    def __init__(self, rows: int, cols: int, entries: Sequence[Poly], p: int):
        _check_prime(p)
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        for e in entries:
            if e.p != p:
                raise ValueError("entry modulus mismatch")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def from_coeffs(cls, grid: Sequence[Sequence[Sequence[int]]], p: int) -> "PolyMatrix":
        """Build from nested coefficient arrays: grid[r][c] = coeff list."""
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        entries = []
        for row in grid:
            if len(row) != cols:
                raise ValueError("ragged coefficient grid")
            entries.extend(Poly(cs, p) for cs in row)
        return cls(rows, cols, entries, p)

    @classmethod
    def identity(cls, n: int, p: int) -> "PolyMatrix":
        entries = [
            Poly.one(p) if r == c else Poly.zero(p)
            for r in range(n)
            for c in range(n)
        ]
        return cls(n, n, entries, p)

    def entry(self, r: int, c: int) -> Poly:
        return self.entries[r * self.cols + c]

    def row(self, r: int) -> tuple[Poly, ...]:
        return self.entries[r * self.cols : (r + 1) * self.cols]

    def max_degree(self) -> int:
        return max((e.degree for e in self.entries), default=-1)

    def __mul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows or self.p != other.p:
            raise ValueError("incompatible matrices")
        out = []
        for r in range(self.rows):
            for c in range(other.cols):
                acc = Poly.zero(self.p)
                for k in range(self.cols):
                    acc = acc + self.entry(r, k) * other.entry(k, c)
                out.append(acc)
        return PolyMatrix(self.rows, other.cols, out, self.p)

    def scale(self, f: Poly) -> "PolyMatrix":
        return PolyMatrix(self.rows, self.cols, [f * e for e in self.entries], self.p)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "PolyMatrix":
        entries = [self.entry(r, c) for r in row_idx for c in col_idx]
        return PolyMatrix(len(row_idx), len(col_idx), entries, self.p)

    def determinant(self) -> Poly:
        """Cofactor expansion; exact, desk scale only."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 1:
            return self.entry(0, 0)
        det = Poly.zero(self.p)
        rest_rows = list(range(1, n))
        for c in range(n):
            a = self.entry(0, c)
            if a.is_zero():
                continue
            minor = self.submatrix(rest_rows, [cc for cc in range(n) if cc != c])
            term = a * minor.determinant()
            det = det + (term if c % 2 == 0 else -term)
        return det

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and (self.rows, self.cols, self.p) == (other.rows, other.cols, other.p)
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries, self.p))

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(repr(e) for e in self.row(r)) for r in range(self.rows)
        )
        return f"PolyMatrix({self.rows}x{self.cols} over GF({self.p}): [{body}])"

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[list(e.coeffs) for e in self.row(r)] for r in range(self.rows)],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "PolyMatrix":
        m = cls.from_coeffs(doc["entries"], doc["p"])
        if m.rows != doc["rows"] or m.cols != doc["cols"]:
            raise ValueError("declared dimensions do not match entries")
        return m


class Catastrophicity(Enum):
    NON_CATASTROPHIC = "non-catastrophic"
    CATASTROPHIC = "catastrophic"


@dataclass(frozen=True)
class CatastrophicityVerdict:
    verdict: Catastrophicity
    witness: Poly

    @property
    def is_catastrophic(self) -> bool:
        return self.verdict is Catastrophicity.CATASTROPHIC

    @property
    def delay(self) -> int:
        """l such that the witness is D^l, for non-catastrophic encoders."""
        if self.is_catastrophic:
            raise ValueError("delay undefined for catastrophic encoders")
        return self.witness.degree


def minors(G: PolyMatrix, k: int) -> list[Poly]:
    """All k x k minors, lexicographic in (row set, column set)."""
    if k < 1 or k > min(G.rows, G.cols):
        raise ValueError(f"minor order {k} out of range for {G.rows}x{G.cols}")
    out = []
    for row_idx in itertools.combinations(range(G.rows), k):
        for col_idx in itertools.combinations(range(G.cols), k):
            out.append(G.submatrix(row_idx, col_idx).determinant())
    return out


def catastrophic_check(G: PolyMatrix) -> CatastrophicityVerdict:
    """Massey-Sain test: non-catastrophic iff the gcd of the maximal minors
    is a pure delay D^l (up to a nonzero scalar)."""
    k = G.rows
    if k > G.cols:
        raise ValueError("generator matrix must have rows <= cols")
    ms = minors(G, k)
    if all(m.is_zero() for m in ms):
        raise RankDeficientError("generator matrix is rank deficient")
    g = Poly.zero(G.p)
    for m in ms:
        g = poly_gcd(g, m)
    verdict = (
        Catastrophicity.NON_CATASTROPHIC
        if g.is_monomial()
        else Catastrophicity.CATASTROPHIC
    )
    return CatastrophicityVerdict(verdict, g)


def right_inverse(G: PolyMatrix) -> tuple[PolyMatrix, int]:
    """Polynomial right inverse: H (n x k) and l >= 0 with G @ H = D^l I_k.

    Built from a Bezout combination over the maximal minors: each minor's
    column set contributes its adjugate, embedded into the full column
    space, weighted by the Bezout coefficient.
    """
    verdict = catastrophic_check(G)
    if verdict.is_catastrophic:
        raise ValueError("right inverse requested for a catastrophic encoder")
    p = G.p
    k, n = G.rows, G.cols
    col_sets = list(itertools.combinations(range(n), k))
    dets = [G.submatrix(range(k), cs).determinant() for cs in col_sets]

    # Bezout coefficients b_J with sum(b_J * det_J) = monic gcd = D^l.
    coeffs: dict[int, Poly] = {}
    g = Poly.zero(p)
    for j, d in enumerate(dets):
        if d.is_zero():
            continue
        if g.is_zero():
            g = d.monic()
            coeffs = {j: Poly.one(p).scale(pow(d.leading(), p - 2, p))}
            continue
        g2, s, t = poly_ext_gcd(g, d)
        coeffs = {jj: s * c for jj, c in coeffs.items()}
        coeffs[j] = coeffs.get(j, Poly.zero(p)) + t
        g = g2
    l = g.degree

    entries = [Poly.zero(p)] * (n * k)
    for j, b in coeffs.items():
        if b.is_zero():
            continue
        cs = col_sets[j]
        sub = G.submatrix(range(k), cs)
        adj = _adjugate(sub)
        for local_r, global_r in enumerate(cs):
            for c in range(k):
                idx = global_r * k + c
                entries[idx] = entries[idx] + b * adj.entry(local_r, c)
    H = PolyMatrix(n, k, entries, p)

    prod = G * H
    target = PolyMatrix.identity(k, p).scale(Poly.monomial(l, p))
    if prod != target:
        raise AssertionError("right inverse construction failed its contract")
    return H, l


def _adjugate(M: PolyMatrix) -> PolyMatrix:
    n = M.rows
    p = M.p
    if n == 1:
        return PolyMatrix(1, 1, [Poly.one(p)], p)
    entries = []
    for r in range(n):
        for c in range(n):
            rows = [i for i in range(n) if i != c]
            cols = [j for j in range(n) if j != r]
            cof = M.submatrix(rows, cols).determinant()
            entries.append(cof if (r + c) % 2 == 0 else -cof)
    return PolyMatrix(n, n, entries, p)
