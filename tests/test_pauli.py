import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcclab.pauli import PauliWindow, StabilizerWindow

from oracles import first_stabilizer_violation


def pw(s):
    return PauliWindow.from_string(s)


def window(gens, lx, lz, L, p=2):
    """The `StabilizerWindow` of these operators, each list passed as its
    matrix of (x | z) rows."""
    def rows(ops):
        return np.array([op.symplectic() for op in ops], dtype=np.int64).reshape(len(ops), 2 * L)
    return StabilizerWindow(rows(gens), rows(lx), rows(lz), p)


@pytest.fixture(scope="module")
def repetition_stab():
    gens = [pw("ZZI"), pw("ZIZ")]
    return window(gens, [pw("XXX")], [pw("ZZZ")], 3)


class TestAlgebra:
    def test_involution(self):
        x1 = pw("XII")
        assert x1.compose(x1).is_identity()

    def test_xz_gives_y_with_tracked_order_phase(self):
        xz = pw("XII").compose(pw("ZII"))
        zx = pw("ZII").compose(pw("XII"))
        assert xz.to_string() == zx.to_string() == "YII"
        # reordering Z past X costs omega = tau^2; the canonical X-then-Z
        # product needs no correction
        assert xz.phase_exp == 0
        assert zx.phase_exp == 2

    def test_componentwise_sum_mod_three(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            a = PauliWindow(rng.integers(0, 3, 5), rng.integers(0, 3, 5), 3)
            b = PauliWindow(rng.integers(0, 3, 5), rng.integers(0, 3, 5), 3)
            c = a.compose(b)
            assert np.array_equal(c.x, (a.x + b.x) % 3)
            assert np.array_equal(c.z, (a.z + b.z) % 3)

    def test_inverse(self):
        rng = np.random.default_rng(1)
        for p in (2, 3):
            a = PauliWindow(rng.integers(0, p, 4), rng.integers(0, p, 4), p, phase_exp=3)
            prod = a.compose(a.inverse())
            assert prod.is_identity() and prod.phase_exp == 0

    @given(st.integers(0, 3**8 - 1), st.integers(0, 3**8 - 1), st.integers(0, 3**8 - 1))
    @settings(max_examples=80, deadline=None)
    def test_associativity_and_identity(self, ai, bi, ci):
        def unpack(v):
            digs = []
            for _ in range(8):
                digs.append(v % 3)
                v //= 3
            return PauliWindow(digs[:4], digs[4:], 3)

        a, b, c = unpack(ai), unpack(bi), unpack(ci)
        left = a.compose(b).compose(c)
        right = a.compose(b.compose(c))
        assert left == right
        e = PauliWindow.identity(4, 3)
        assert a.compose(e) == a and e.compose(a) == a

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pw("XI").compose(pw("XII"))


class TestIntegerEntries:
    @pytest.mark.parametrize("bad", [[1.5, 2.7], ["1", "0"]], ids=["fraction", "str"])
    def test_rejects_non_integer_registers(self, bad):
        with pytest.raises(TypeError, match="x must be integers"):
            PauliWindow(bad, [0, 0], 3)
        with pytest.raises(TypeError, match="z must be integers"):
            PauliWindow([0, 0], bad, 3)

    def test_rejects_a_non_integer_phase(self):
        with pytest.raises(TypeError, match="phase_exp must be an integer"):
            PauliWindow([1], [0], 3, phase_exp=1.5)

    def test_identity_has_integer_entries(self):
        e = PauliWindow.identity(3, 5)
        assert e.x.dtype == e.z.dtype == np.int64 and e.is_identity()


class TestCommutation:
    def test_disjoint_support(self):
        assert pw("XI").commutes(pw("IZ"))

    def test_canonical_pair(self):
        assert not pw("X").commutes(pw("Z"))

    def test_even_overlap(self):
        assert pw("ZZI").commutes(pw("XXX"))

    def test_qutrit_symplectic(self):
        a = PauliWindow([1, 0], [0, 0], 3)
        b = PauliWindow([0, 0], [2, 0], 3)
        assert a.sym_product(b) == 2
        assert not a.commutes(b)


class TestWeight:
    @pytest.mark.parametrize(
        "s,w", [("III", 0), ("YII", 1), ("XIZ", 2), ("XYZ", 3)]
    )
    def test_counts_busy_registers(self, s, w):
        assert pw(s).weight() == w


class TestStabilizerWindow:
    def test_rejects_anticommuting_generators(self):
        with pytest.raises(ValueError):
            window([pw("XI"), pw("ZI")], [], [], 2)

    def test_rejects_broken_logical_pairing(self):
        # XX and ZZ commute: not a conjugate pair
        with pytest.raises(ValueError):
            window([], [pw("XX")], [pw("ZZ")], 2)
        # cross-pair anticommutation is just as fatal
        with pytest.raises(ValueError):
            window([], [pw("XI"), pw("IX")], [pw("ZI"), pw("ZZ")], 2)

    @pytest.mark.parametrize("gens, lx, lz, message", [
        (["XI", "ZI"], [], [], "generators must mutually commute"),
        (["ZZ"], ["XI"], ["ZI"], "logicals must commute with the stabilizer"),
        ([], ["XX"], ["ZZ"], "anticommute exactly on matching indices"),
        ([], ["XI", "IX"], ["ZI", "ZZ"], "anticommute exactly on matching indices"),
        ([], ["XI", "ZX"], ["ZI", "IZ"], "logical_x operators must mutually commute"),
        ([], ["XI", "IX"], ["ZI", "XZ"], "logical_z operators must mutually commute"),
        # two conditions fail: the first in generator-by-generator order wins
        (["ZI", "XI", "ZZ"], ["XX"], ["ZZ"], "generators must mutually commute"),
        (["IIZ", "XII", "ZII"], ["IIX"], ["IIZ"], "logicals must commute with the stabilizer"),
        (["XII", "ZII"], ["XIX"], ["IIZ"], "generators must mutually commute"),
        ([], ["XI", "ZI"], ["XI", "IZ"], "anticommute exactly on matching indices"),
        ([], ["XI", "ZI"], ["ZI", "XI"], "logical_x operators must mutually commute"),
    ], ids=["generators", "stabilizer", "pair-commutes", "cross-pair",
            "logical-x", "logical-z", "generators-before-pairing",
            "first-generator-hits-logical", "first-generator-hits-generator",
            "pairing-before-logical-x", "logical-x-before-logical-z"])
    def test_validation_messages_in_loop_order(self, gens, lx, lz, message):
        ops = [[pw(o) for o in group] for group in (gens, lx, lz)]
        assert message in first_stabilizer_violation(*ops)
        with pytest.raises(ValueError, match=message):
            window(*ops, L=len((gens + lx)[0]))

    @pytest.mark.parametrize("p", [2, 3])
    def test_validation_agrees_with_pairwise_products(self, p):
        rng = np.random.default_rng(p)
        outcomes = set()
        for _ in range(300):
            # a valid window, X and Z on registers 0 and 1 as the logical
            # pairs and Z on 2 and X on 3 as generators, with one or two
            # register values of its operators overwritten at random
            x = np.zeros((6, 4), dtype=np.int64)
            z = np.zeros((6, 4), dtype=np.int64)
            z[0, 2] = x[1, 3] = x[2, 0] = x[3, 1] = z[4, 0] = z[5, 1] = 1
            for _ in range(int(rng.integers(1, 3))):
                op, reg = rng.integers(0, 6), rng.integers(0, 4)
                x[op, reg], z[op, reg] = rng.integers(0, p, 2)
            ops = [PauliWindow(a, b, p) for a, b in zip(x, z)]
            expected = first_stabilizer_violation(ops[:2], ops[2:4], ops[4:])
            outcomes.add(expected)
            rows = np.hstack([x, z])
            if expected is None:
                StabilizerWindow(rows[:2], rows[2:4], rows[4:], p)
            else:
                with pytest.raises(ValueError) as err:
                    StabilizerWindow(rows[:2], rows[2:4], rows[4:], p)
                assert str(err.value) == expected
        assert len(outcomes) == 6  # each of the five messages, and success

    def test_stores_read_only_matrices_and_views_of_them(self, repetition_stab):
        stab = repetition_stab
        assert stab.gen_matrix.tolist() == [[0, 0, 0, 1, 1, 0], [0, 0, 0, 1, 0, 1]]
        assert stab.logical_x_matrix.tolist() == [[1, 1, 1, 0, 0, 0]]
        assert stab.logical_z_matrix.tolist() == [[0, 0, 0, 1, 1, 1]]
        for m in (stab.gen_matrix, stab.logical_x_matrix, stab.logical_z_matrix):
            assert m.dtype == np.int64 and not m.flags.writeable
        assert stab.generators == (pw("ZZI"), pw("ZIZ"))
        assert (stab.logical_x, stab.logical_z) == ((pw("XXX"),), (pw("ZZZ"),))

    def test_entries_are_reduced_mod_p(self):
        stab = StabilizerWindow([[0, 3]], [[4, 0]], [[0, 2]], 3)
        assert stab.gen_matrix.tolist() == [[0, 0]]
        assert stab.logical_x_matrix.tolist() == [[1, 0]]
        assert stab.logical_z[0] == PauliWindow([0], [2], 3)

    def test_a_window_without_rows(self):
        none = np.zeros((0, 6), dtype=np.int64)
        stab = StabilizerWindow(none, none, none, 2)
        assert stab.L == 3 and stab.generators == () == stab.logical_x
        assert stab.syndrome(pw("XYZ")).shape == (0,)

    @pytest.mark.parametrize("shapes, message", [
        (((1, 3), (0, 3), (0, 3)), "dimension mismatch"),
        (((1, 4), (0, 6), (0, 6)), "dimension mismatch"),
        (((4,), (0, 4), (0, 4)), "dimension mismatch"),
        (((0, 4), (1, 4), (0, 4)), "must pair up"),
    ], ids=["odd-columns", "unequal-columns", "vector", "unpaired"])
    def test_rejects_malformed_matrices(self, shapes, message):
        mats = [np.zeros(shape, dtype=np.int64) for shape in shapes]
        with pytest.raises(ValueError, match=message):
            StabilizerWindow(*mats, 2)

    def test_rejects_a_composite_dimension(self):
        none = np.zeros((0, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="must be prime, got 4"):
            StabilizerWindow(none, none, none, 4)

    def test_rejects_non_integer_entries(self):
        none = np.zeros((0, 4), dtype=np.int64)
        for bad in ([[0, 0, 1.5, 0]], [["0", "0", "1", "1"]]):
            with pytest.raises(TypeError, match="generators must be integers"):
                StabilizerWindow(bad, none, none, 2)
        with pytest.raises(TypeError, match="logical_x must be integers"):
            StabilizerWindow(none, [[1.0, 0, 0, 0]], [[0, 0, 1, 0]], 2)

    def test_syndrome_examples(self, repetition_stab):
        assert np.array_equal(repetition_stab.syndrome(pw("III")), [0, 0])
        assert np.array_equal(repetition_stab.syndrome(pw("XII")), [1, 1])
        assert np.array_equal(repetition_stab.syndrome(pw("IXI")), [1, 0])
        # stabilizer elements have zero syndrome
        assert np.array_equal(repetition_stab.syndrome(pw("IZZ")), [0, 0])

    def test_syndrome_linearity(self, repetition_stab):
        rng = np.random.default_rng(2)
        for _ in range(40):
            a = PauliWindow(rng.integers(0, 2, 3), rng.integers(0, 2, 3), 2)
            b = PauliWindow(rng.integers(0, 2, 3), rng.integers(0, 2, 3), 2)
            sa = repetition_stab.syndrome(a)
            sb = repetition_stab.syndrome(b)
            sab = repetition_stab.syndrome(a.compose(b))
            assert np.array_equal(sab, (sa + sb) % 2)


class TestSerialization:
    def test_string_roundtrip(self):
        s = "IXZYXIZZ"
        assert pw(s).to_string() == s

    def test_bad_character(self):
        with pytest.raises(ValueError):
            pw("XQ")

    def test_json_pairs(self):
        a = PauliWindow([1, 0, 2], [0, 2, 1], 3, phase_exp=4)
        doc = a.to_json()
        assert doc == {"x": [1, 0, 2], "z": [0, 2, 1], "phase": 4}

    def test_string_form_requires_qubits(self):
        with pytest.raises(ValueError):
            PauliWindow([1], [1], 3).to_string()
