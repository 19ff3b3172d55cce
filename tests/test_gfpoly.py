import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcclab.gfpoly import (
    Catastrophicity,
    DegreeOverflowError,
    Poly,
    PolyMatrix,
    RankDeficientError,
    catastrophic_check,
    minors,
    poly_ext_gcd,
    poly_gcd,
    right_inverse,
)


def P(coeffs, p=2):
    return Poly(coeffs, p)


class TestPoly:
    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError, match="modulus must be prime"):
            P([1, 1], 4)

    def test_canonical_form_strips_trailing_zeros(self):
        assert P([1, 1, 0, 0]).coeffs == (1, 1)
        assert P([0, 0]).coeffs == ()
        assert P([]).degree == -1

    def test_mul_divmod_roundtrip(self):
        a = P([1, 0, 1, 1])
        b = P([1, 1])
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    def test_ternary_arithmetic(self):
        a = P([2, 1], 3)
        b = P([1, 2], 3)
        assert (a + b).coeffs == (0,) or (a + b).is_zero()
        assert (a * b).coeffs == (2, 2, 2)

    def test_degree_cap(self):
        big = Poly.monomial(40, 2)
        with pytest.raises(DegreeOverflowError):
            _ = big * big

    def test_repr_is_readable(self):
        assert repr(P([1, 0, 1])) == "1 + D^2"


class TestGcd:
    def test_shared_factor(self):
        # 1 + D^2 = (1 + D)^2 over GF(2)
        assert poly_gcd(P([1, 1]), P([1, 0, 1])) == P([1, 1])

    def test_coprime(self):
        assert poly_gcd(P([1, 0, 1]), P([1, 1, 1])) == Poly.one(2)

    def test_zero_operand_normalizes(self):
        f = P([0, 2], 5)
        assert poly_gcd(Poly.zero(5), f) == f.monic()
        assert poly_gcd(Poly.zero(5), Poly.zero(5)).is_zero()

    @given(
        st.integers(0, 2**6 - 1),
        st.integers(0, 2**6 - 1),
        st.integers(1, 2**4 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_gcd_divides_both_and_is_maximal(self, ai, bi, ci):
        def frombits(v):
            return P([(v >> i) & 1 for i in range(7)])

        a, b, c = frombits(ai), frombits(bi), frombits(ci)
        g = poly_gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            return
        assert (a % g).is_zero() and (b % g).is_zero()
        # any common divisor divides the gcd: test with c * g common multiple
        ga, gb = a * c, b * c
        assert (poly_gcd(ga, gb) % (g * c).monic()).is_zero()

    @given(st.integers(1, 2**6 - 1), st.integers(1, 2**6 - 1))
    @settings(max_examples=100, deadline=None)
    def test_bezout_identity(self, ai, bi):
        def frombits(v):
            return P([(v >> i) & 1 for i in range(7)])

        a, b = frombits(ai), frombits(bi)
        g, s, t = poly_ext_gcd(a, b)
        assert s * a + t * b == g


class TestMinors:
    def test_row_vector_minors_are_entries(self):
        G = PolyMatrix.from_coeffs([[[1, 0, 1], [1, 1, 1]]], 2)
        assert minors(G, 1) == [P([1, 0, 1]), P([1, 1, 1])]

    def test_identity(self):
        assert minors(PolyMatrix.identity(2, 2), 2) == [Poly.one(2)]

    def test_two_by_two(self):
        G = PolyMatrix.from_coeffs([[[1], [0, 1]], [[0, 1], [1]]], 2)
        assert minors(G, 2) == [P([1, 0, 1])]

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            minors(PolyMatrix.identity(2, 2), 3)

    def test_determinant_matches_permutation_expansion(self):
        # independent oracle: sum over permutations with explicit signs
        import random

        rng = random.Random(11)
        for p in (2, 3):
            for n in (2, 3, 4):
                entries = [
                    Poly([rng.randrange(p) for _ in range(3)], p)
                    for _ in range(n * n)
                ]
                M = PolyMatrix(n, n, entries, p)
                det = Poly.zero(p)
                for perm in itertools.permutations(range(n)):
                    sign = 1
                    for i in range(n):
                        for j in range(i + 1, n):
                            if perm[i] > perm[j]:
                                sign = -sign
                    term = Poly.one(p)
                    for i in range(n):
                        term = term * M.entry(i, perm[i])
                    det = det + (term if sign > 0 else -term)
                assert M.determinant() == det


class TestCatastrophicity:
    def test_flagship_encoder_is_clean(self, rate_half_parent):
        v = catastrophic_check(rate_half_parent.G)
        assert v.verdict is Catastrophicity.NON_CATASTROPHIC
        assert v.witness == Poly.one(2)
        assert v.delay == 0

    def test_shared_factor_encoder_is_catastrophic(self, catastrophic_parent):
        v = catastrophic_check(catastrophic_parent.G)
        assert v.verdict is Catastrophicity.CATASTROPHIC
        assert v.witness == P([1, 1])

    def test_pure_delay_is_clean_with_delay(self):
        G = PolyMatrix.from_coeffs([[[0, 1], [0, 0, 1]]], 2)
        v = catastrophic_check(G)
        assert v.verdict is Catastrophicity.NON_CATASTROPHIC
        assert v.witness == Poly.monomial(1, 2)
        assert v.delay == 1

    def test_rank_deficient_rejected(self):
        G = PolyMatrix.from_coeffs([[[1], [1]], [[1], [1]]], 2)
        with pytest.raises(RankDeficientError):
            catastrophic_check(G)

    def test_invariant_under_unimodular_row_operations(self):
        import random

        rng = random.Random(5)
        G = PolyMatrix.from_coeffs(
            [[[1], [0, 1], [1, 1]], [[0, 0, 1], [1], [0, 1, 1]]], 2
        )
        base = catastrophic_check(G)
        for _ in range(20):
            # elementary row op: row0 += f * row1 (unit determinant)
            f = Poly([rng.randrange(2) for _ in range(3)], 2)
            r0 = [G.entry(0, c) + f * G.entry(1, c) for c in range(3)]
            G2 = PolyMatrix(2, 3, tuple(r0) + G.row(1), 2)
            v = catastrophic_check(G2)
            assert v.verdict is base.verdict
            assert v.witness == base.witness
            G = G2


class TestRightInverse:
    def test_flagship_contract(self, rate_half_parent):
        H, l = right_inverse(rate_half_parent.G)
        prod = rate_half_parent.G * H
        assert prod.entry(0, 0) == Poly.monomial(l, 2)

    def test_identity(self):
        H, l = right_inverse(PolyMatrix.identity(3, 5))
        assert l == 0
        assert H == PolyMatrix.identity(3, 5)

    def test_pure_delay(self):
        G = PolyMatrix.from_coeffs([[[0, 1], [0, 0, 1]]], 2)
        H, l = right_inverse(G)
        prod = G * H
        assert prod.entry(0, 0) == Poly.monomial(l, 2)

    def test_two_row_encoder(self):
        G = PolyMatrix.from_coeffs(
            [[[1], [0, 1], [1, 1]], [[0], [1], [1, 0, 1]]], 2
        )
        H, l = right_inverse(G)
        prod = G * H
        want = PolyMatrix.identity(2, 2).scale(Poly.monomial(l, 2))
        assert prod == want

    def test_catastrophic_rejected(self, catastrophic_parent):
        with pytest.raises(ValueError):
            right_inverse(catastrophic_parent.G)

    def test_ternary_encoder(self):
        G = PolyMatrix.from_coeffs([[[1, 0, 1], [1, 1]]], 3)
        H, l = right_inverse(G)
        assert (G * H).entry(0, 0) == Poly.monomial(l, 3)

    def test_shared_ternary_factor_rejected(self):
        # both taps divisible by D + 2 over GF(3)
        G = PolyMatrix.from_coeffs([[[1, 0, 2], [2, 1]]], 3)
        assert catastrophic_check(G).is_catastrophic
        with pytest.raises(ValueError):
            right_inverse(G)


class TestSerialization:
    def test_matrix_roundtrip(self):
        G = PolyMatrix.from_coeffs([[[1, 0, 1], [1, 1, 1]]], 2)
        assert PolyMatrix.from_json(G.to_json()) == G

    def test_poly_json_is_low_degree_first(self):
        assert P([1, 0, 1]).to_json() == [1, 0, 1]

    def test_declared_shape_must_match(self):
        doc = PolyMatrix.from_coeffs([[[1], [1]]], 2).to_json()
        doc["cols"] = 3
        with pytest.raises(ValueError):
            PolyMatrix.from_json(doc)
