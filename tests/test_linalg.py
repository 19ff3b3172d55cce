import numpy as np
import pytest

from qcclab import ConvCode, PolyMatrix, QccCode, linalg
from qcclab.qcc import encoding_matrix
from qcclab.qviterbi import build_error_trellis

from oracles import kernel_by_loop, minimal_span_by_rref


def test_rref_pivots():
    M = [[1, 1, 0], [1, 0, 1]]
    R, pivots = linalg.rref(M, 2)
    assert pivots == [0, 1]
    assert np.array_equal(R, [[1, 0, 1], [0, 1, 1]])


def test_solve_consistent_and_inconsistent():
    M = np.array([[1, 1], [0, 1], [1, 0]])
    x = linalg.solve(M, [0, 1, 1], 2)
    assert x is not None and np.array_equal((M @ x) % 2, [0, 1, 1])
    assert linalg.solve(M, [1, 1, 1], 2) is None


def test_kernel_annihilates():
    rng = np.random.default_rng(0)
    for p in (2, 3, 5):
        M = rng.integers(0, p, (4, 7))
        K = linalg.kernel(M, p)
        assert len(K) == 7 - linalg.rank(M, p)
        assert not ((M @ K.T) % p).any()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kernel_equals_the_loop_reference(p):
    rng = np.random.default_rng(p)
    mats = [rng.integers(0, p, (rows, cols)) * (rng.random((rows, cols)) < density)
            for rows, cols, density in zip(rng.integers(0, 9, 200), rng.integers(1, 13, 200),
                                           rng.random(200))]
    parent = ConvCode(PolyMatrix.from_coeffs([[[1, 0, 1], [1, 1, 1]]], p))
    mats += [encoding_matrix(parent, blocks).T for blocks in (3, 10, 20)]
    for M in mats:
        got, want = linalg.kernel(M, p), kernel_by_loop(M, p)
        assert got.dtype == want.dtype and np.array_equal(got, want), M


def test_minimal_span_shrinks_and_preserves_space():
    rng = np.random.default_rng(3)
    base = np.zeros((4, 12), dtype=np.int64)
    # staircase rows plus deliberate mixing
    for i in range(4):
        base[i, 2 * i : 2 * i + 5] = rng.integers(0, 2, 5)
        base[i, 2 * i] = 1
    mixed = base.copy()
    mixed[0] = (mixed[0] + mixed[1] + mixed[3]) % 2
    mixed[2] = (mixed[2] + mixed[3]) % 2
    out = linalg.minimal_span_basis(mixed, 2)
    assert len(out) == 4
    # same row space
    both = np.concatenate([base, out])
    assert linalg.rank(both, 2) == linalg.rank(base, 2) == 4
    # spans are pairwise distinct at both ends
    starts = [np.nonzero(r)[0][0] for r in out]
    ends = [np.nonzero(r)[0][-1] for r in out]
    assert len(set(starts)) == 4 and len(set(ends)) == 4


@pytest.mark.parametrize("p", [2, 3])
def test_solve_matches_numpy_over_small_fields(p):
    rng = np.random.default_rng(7)
    for _ in range(30):
        M = rng.integers(0, p, (5, 5))
        x_true = rng.integers(0, p, 5)
        b = (M @ x_true) % p
        x = linalg.solve(M, b, p)
        assert x is not None
        assert np.array_equal((M @ x) % p, b)


def _starts_ends(rows):
    nz = rows != 0
    return nz.argmax(axis=1), rows.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_minimal_span_form_of_random_matrices(p):
    rng = np.random.default_rng(p)
    for trial in range(40):
        rows, cols = rng.integers(1, 7), rng.integers(6, 16)
        # mixed sparse bands, so that echelon form alone leaves shared ends
        M = rng.integers(0, p, (rows, cols)) * (rng.random((rows, cols)) < 0.5)
        M = (rng.integers(0, p, (rows, rows)) @ M) % p
        if linalg.rank(M, p) < rows or not M.any(axis=1).all():
            continue
        out = linalg.minimal_span_basis(M, p)
        assert out.shape == M.shape
        assert linalg.rank(np.concatenate([M, out]), p) == rows
        starts, ends = _starts_ends(out)
        # distinct starts and distinct ends characterise minimal span form
        assert len(set(starts)) == rows and len(set(ends)) == rows
        assert list(starts) == sorted(starts)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_distinct_starts_of_random_matrices(p):
    rng = np.random.default_rng([p, 121])
    for trial in range(40):
        rows, cols = rng.integers(1, 9), rng.integers(6, 16)
        # short random bands, then zero and dependent rows among them
        M = rng.integers(0, p, (rows, cols)) * (rng.random((rows, cols)) < 0.5)
        M = (rng.integers(0, p, (rows, rows)) * (rng.random((rows, rows)) < 0.3) @ M) % p
        out = linalg.distinct_starts(M, p)
        rank = linalg.rank(M, p)
        assert out.shape == (rank, cols)
        assert linalg.rank(np.concatenate([M, out]), p) == rank
        starts, ends = _starts_ends(out)
        assert list(starts) == sorted(set(starts))
        # no end moves right: each row ends no later than the row of M it
        # came from, so the k-th latest end is no later than M's
        if rank:
            before = np.sort(_starts_ends(M[M.any(axis=1)])[1])[::-1][:rank]
            assert (np.sort(ends)[::-1] <= before).all()
            # shortened, it has the spans of the minimal span form
            short = linalg.shorten_ends(out, p)
            want = minimal_span_by_rref(linalg.rref(M, p)[0], p)
            assert sorted(zip(*map(list, _starts_ends(short)))) == \
                sorted(zip(*map(list, _starts_ends(want))))


def test_minimal_span_rejects_dependent_rows():
    with pytest.raises(ValueError, match="dependent"):
        linalg.minimal_span_basis([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 2)
    with pytest.raises(ValueError, match="dependent"):
        linalg.minimal_span_basis([[1, 2, 0], [2, 1, 0]], 3)


def test_solve_with_matrix_right_hand_side():
    rng = np.random.default_rng(5)
    M = rng.integers(0, 3, (6, 4))
    X = rng.integers(0, 3, (4, 5))
    sol = linalg.solve(M, (M @ X) % 3, 3)
    assert sol.shape == (4, 5)
    assert np.array_equal((M @ sol) % 3, (M @ X) % 3)
    B = (M @ X) % 3
    B[:, 2] = linalg.kernel(M.T, 3)[0]  # outside the column space
    assert linalg.solve(M, B, 3) is None


# (start, end) column spans of the error-trellis generators, in the
# register-interleaved (x_j, z_j) columns; minimal span form fixes them
FLAGSHIP_SPANS = list(zip(
    [0, 1, 3, 4, 5, 7, 8, 9, 12, 13, 16, 17, 21, 24, 25, 29, 32, 33, 37, 40, 41, 45, 48, 49,
     53, 56, 57, 61, 65, 69],
    [14, 3, 7, 22, 11, 15, 30, 19, 38, 23, 46, 27, 31, 54, 35, 39, 62, 43, 47, 70, 51, 55, 78,
     59, 63, 76, 67, 71, 75, 79],
))
WIDE_SPANS = list(zip(
    [0, 1, 2, 3, 5, 7, 8, 9, 10, 13, 16, 17, 21, 24, 25, 29, 32, 33, 37, 41, 45, 48, 49, 57],
    [22, 5, 18, 7, 23, 15, 50, 13, 34, 31, 38, 21, 39, 62, 29, 47, 54, 37, 55, 45, 63, 60, 53,
     61],
))
WIDE_PARENT = {"p": 2, "k": 2, "n": 4, "G": [[[1, 1], [1], [0, 1], [1, 1]],
                                             [[0, 1], [1, 1], [1], [1]]]}


@pytest.mark.parametrize("parent, window, spans", [
    ({"p": 2, "k": 1, "n": 2, "G": [[[1, 0, 1], [1, 1, 1]]]}, 10, FLAGSHIP_SPANS),
    ({"p": 3, "k": 1, "n": 2, "G": [[[1, 0, 1], [1, 1, 1]]]}, 10, FLAGSHIP_SPANS),
    (WIDE_PARENT, 4, WIDE_SPANS),
], ids=["flagship-p2-W10", "flagship-p3-W10", "rate-2/4-W4"])
def test_error_trellis_span_multisets(parent, window, spans):
    trellis = build_error_trellis(QccCode(ConvCode.from_json(parent), window))
    inter = np.empty((trellis.G, 2 * trellis.L), dtype=np.int64)
    inter[:, 0::2] = trellis.gen_x
    inter[:, 1::2] = trellis.gen_z
    starts, ends = _starts_ends(inter)
    assert sorted(zip(starts.tolist(), ends.tolist())) == sorted(spans)
