"""Windowed code construction: parent checks, encoding matrices, the
localized solves behind the logicals, stabilizer invariants and interior
templates."""

import numpy as np
import pytest

from qcclab import ConvCode, PolyMatrix, QccCode, encode_stream, linalg
from qcclab.gfpoly import RankDeficientError, catastrophic_check
from qcclab.linalg import solve_localized
from qcclab.qcc import _generator_rows, _normalize, _span_len, _unit, encoding_matrix

from oracles import minimal_span_by_rref, solve_localized_by_trimming

FLAGSHIP_TAPS = [[[1, 0, 1], [1, 1, 1]]]
# a non-catastrophic rate-2/4 parent with 8 registers per block
WIDE = {"p": 2, "k": 2, "n": 4, "G": [[[1, 1], [1], [0, 1], [1, 1]],
                                      [[0, 1], [1, 1], [1], [1]]]}


def flagship(p):
    return ConvCode(PolyMatrix.from_coeffs(FLAGSHIP_TAPS, p))


def random_parent(p, k, n, m, seed):
    """A random parent with memory m that `QccCode` accepts: full rank,
    non-catastrophic and without delay."""
    rng = np.random.default_rng([p, k, n, m, seed])
    while True:
        taps = [[rng.integers(0, p, m + 1).tolist() for _ in range(n)] for _ in range(k)]
        G = PolyMatrix.from_coeffs(taps, p)
        try:
            verdict = catastrophic_check(G)
        except RankDeficientError:
            continue
        if G.max_degree() == m and not verdict.is_catastrophic and verdict.delay == 0:
            return ConvCode(G)


def test_parent_whose_k_does_not_divide_n_squared_is_rejected():
    parent = ConvCode.from_json(
        {"p": 2, "k": 2, "n": 3, "G": [[[1, 1], [1, 0], [1, 0]], [[1], [0, 1], [1, 0]]]})
    with pytest.raises(ValueError, match="k=2 does not divide n\\^2=9"):
        QccCode(parent, 4)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_templates_are_normalised_and_listed_by_offset(p):
    code = QccCode(ConvCode(PolyMatrix.from_coeffs(FLAGSHIP_TAPS, p)), 10)
    kinds = [t.kind for t in code.templates]
    assert kinds == sorted(kinds, key=["stabilizer-x", "stabilizer-z",
                                       "logical-x", "logical-z"].index)
    for kind in set(kinds):
        offsets = [t.offset for t in code.templates if t.kind == kind]
        assert offsets == sorted(offsets)
    for t in code.templates:
        pat = t.pattern
        lead = [v for v in np.column_stack([pat.x, pat.z]).ravel() if v]
        assert lead[0] == 1
        assert (pat.x[0], pat.z[0]) != (0, 0) and (pat.x[-1], pat.z[-1]) != (0, 0)


# the rate-1/3 parent (1+D, 1+D^2, 1+D+D^2) and random parents by
# (p, k, n, m) and seed; on the first and on 12 of the others, some
# minimal-span row recurs at one offset near the left edge but is a
# logical further in, so it must not be read as a template
RATE_THIRD = {"p": 2, "k": 1, "n": 3, "G": [[[1, 1], [1, 0, 1], [1, 1, 1]]]}
TEMPLATE_PARENTS = {
    **{f"flagship-p{p}": lambda p=p: flagship(p) for p in (2, 3, 5)},
    "rate-2/4": lambda: ConvCode.from_json(WIDE),
    "1+D-p3": lambda: ConvCode(PolyMatrix.from_coeffs([[[1], [1, 1]]], 3)),
    "rate-1/3": lambda: ConvCode.from_json(RATE_THIRD),
    **{f"random-{p}{k}{n}{m}-{seed}": lambda a=(p, k, n, m, seed): random_parent(*a)
       for p, k, n, m in [(2, 1, 2, 2), (2, 1, 2, 3), (3, 1, 2, 2), (2, 1, 3, 2),
                          (2, 2, 4, 1), (5, 1, 2, 1), (2, 1, 2, 4)]
       for seed in range(4)},
}


@pytest.mark.parametrize("name", sorted(TEMPLATE_PARENTS))
def test_stabilizer_templates_shift_into_the_stabilizer(name):
    """Every shift of a stabilizer template that fits in the window commutes
    with every generator and every logical, so it lies in the stabilizer;
    and the templates are the same at every window."""
    parent = TEMPLATE_PARENTS[name]()
    k, m = parent.k, parent.m
    ref = 4 * m + 6
    templates = QccCode(parent, ref + -ref % k).templates
    for W in (m + 1, ref, 2 * ref):
        code = QccCode(parent, W + -W % k)
        assert code.templates == templates
        stab, L, p = code.stabilizer, code.L, code.N
        ops = np.array([op.symplectic()
                        for op in stab.generators + stab.logical_x + stab.logical_z])
        # s commutes with op when s_x . op_z - s_z . op_x = 0 mod p
        partner = np.hstack([ops[:, L:], -ops[:, :L]])
        for t in templates:
            if not t.kind.startswith("stabilizer"):
                continue
            n = t.pattern.L
            starts = range(t.offset, L - n + 1, t.step)
            shifts = np.zeros((len(starts), 2 * L), dtype=np.int64)
            for row, start in enumerate(starts):
                shifts[row, start : start + n] = t.pattern.x
                shifts[row, L + start : L + start + n] = t.pattern.z
            assert not (shifts @ partner.T % p).any(), (W, t.kind, t.offset)


def _interleaved(gens):
    """Generators as rows over the register-interleaved columns, 2j for x_j
    and 2j + 1 for z_j."""
    rows = np.zeros((len(gens), 2 * gens[0].L), dtype=np.int64)
    for i, g in enumerate(gens):
        rows[i, 0::2], rows[i, 1::2] = g.x, g.z
    return rows


@pytest.mark.parametrize("name", sorted(TEMPLATE_PARENTS))
def test_generators_come_in_minimal_span_form(name):
    """The generators are pure X or pure Z, span the construction's kernel
    rows, and form the minimal span basis over the interleaved columns, in
    order of start: strictly increasing starts, distinct ends, each no
    wider than the interior templates."""
    parent = TEMPLATE_PARENTS[name]()
    k, m = parent.k, parent.m
    for W in (m + 1, 4 * m + 6, 2 * (4 * m + 6)):
        code = QccCode(parent, W + -W % k)
        p, gens = code.N, code.stabilizer.generators
        rows = _interleaved(gens)
        nz = rows != 0
        starts = nz.argmax(axis=1)
        ends = rows.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)
        assert (np.diff(starts) > 0).all(), W
        assert len(set(ends.tolist())) == len(ends), W
        assert np.array_equal(linalg.minimal_span_basis(rows, p), rows), W
        assert all(g.x.any() != g.z.any() for g in gens), W
        # each type spans its kernel rows: equal row spaces, equal reduced forms
        A, B = code.first_matrix, code.second_matrix
        for rows, ours in ((linalg.kernel(A.T, p) @ B.T, [g.x for g in gens if g.x.any()]),
                           (linalg.kernel(B.T, p), [g.z for g in gens if g.z.any()])):
            assert np.array_equal(linalg.rref(rows, p)[0], linalg.rref(ours, p)[0]), W
        assert max(_span_len(g) for g in gens) <= code.support_bound, W


def _spans(rows):
    nz = rows != 0
    return sorted(zip(nz.argmax(axis=1).tolist(),
                      (rows.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)).tolist()))


def _assert_generator_rows_match_the_rref_route(parent, W):
    """The X and Z rows of `_generator_rows` span what the rref route's rows
    span, over the same (start, end) spans, each with first nonzero entry 1."""
    code = QccCode(parent, W)
    A, B, p = code.first_matrix, code.second_matrix, code.N
    for got, rows in zip(_generator_rows(A, B, p),
                         (linalg.kernel(A.T, p) @ B.T, linalg.kernel(B.T, p))):
        want = minimal_span_by_rref(rows, p)
        assert got.shape == want.shape, W
        assert linalg.rank(np.concatenate([got, want]), p) == len(want), W
        assert _spans(got) == _spans(want), W
        assert (got[np.arange(len(got)), (got != 0).argmax(axis=1)] == 1).all(), W


@pytest.mark.parametrize("name", sorted(TEMPLATE_PARENTS))
def test_generator_rows_match_the_rref_route(name):
    parent = TEMPLATE_PARENTS[name]()
    k, m = parent.k, parent.m
    for W in (m + 1, 4 * m + 6, 2 * (4 * m + 6)):
        _assert_generator_rows_match_the_rref_route(parent, W + -W % k)


def test_generator_rows_match_the_rref_route_at_a_large_window():
    _assert_generator_rows_match_the_rref_route(flagship(2), 100)


def test_minimal_span_basis_runs_no_rref(monkeypatch):
    """The stabilizer still eliminates densely for its kernels and
    logicals, but never inside `minimal_span_basis`."""
    rref, minimal_span_basis = linalg.rref, linalg.minimal_span_basis
    inside, calls = [], []

    def checked_rref(*args):
        assert not inside, "minimal_span_basis called rref"
        calls.append(True)
        return rref(*args)

    def traced_minimal_span_basis(*args):
        inside.append(True)
        try:
            return minimal_span_basis(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(linalg, "rref", checked_rref)
    monkeypatch.setattr(linalg, "minimal_span_basis", traced_minimal_span_basis)
    QccCode(flagship(3), 10).stabilizer
    assert calls  # the patch is seen: the kernels and logicals still call rref


@pytest.mark.parametrize("parent, blocks", [
    (flagship(3), 1), (flagship(3), 2), (flagship(3), 7),
    (ConvCode.from_json(WIDE), 1), (ConvCode.from_json(WIDE), 6),
], ids=["k1-1-block", "k1-2-blocks", "k1-7-blocks", "k2-1-block", "k2-6-blocks"])
def test_encoding_matrix_is_the_encoded_unit_symbols(parent, blocks):
    K = parent.k * blocks
    M = encoding_matrix(parent, blocks)
    assert M.shape == (parent.n * blocks, K)
    for j in range(K):
        assert M[:, j].tolist() == encode_stream(parent, _unit(K, j).tolist(), terminate=False)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_localized_matches_trimming_on_random_systems(p):
    rng = np.random.default_rng(p)
    for _ in range(60):
        rows, cols = (int(v) for v in rng.integers(3, 12, 2))
        M = rng.integers(0, p, (rows, cols))
        # a few nonzero columns of M mixed, so the solution set is a coset
        v = np.zeros(cols, dtype=np.int64)
        start = int(rng.integers(0, cols))
        stop = min(cols, start + int(rng.integers(1, 4)))
        v[start:stop] = rng.integers(0, p, stop - start)
        b = M @ v % p
        center, hw = int(rng.integers(0, cols)), int(rng.integers(1, 4))
        got = solve_localized(M, b, p, center, hw)
        assert np.array_equal(got, solve_localized_by_trimming(M, b, p, center, hw))
        assert np.array_equal(M @ got % p, b)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_localized_matches_trimming_on_random_banded_systems(p):
    # row r is nonzero only on a band of columns that moves right with r, as
    # in an encoding matrix, so most rows are zero in a narrow window
    rng = np.random.default_rng([p, 1])
    for _ in range(60):
        rows, cols = (int(v) for v in rng.integers(6, 30, 2))
        width = int(rng.integers(1, 5))
        first = np.sort(rng.integers(0, cols, rows))
        band = (np.arange(cols) >= first[:, None]) & (np.arange(cols) < first[:, None] + width)
        M = rng.integers(0, p, (rows, cols)) * band
        v = np.zeros(cols, dtype=np.int64)
        start = int(rng.integers(0, cols))
        stop = min(cols, start + int(rng.integers(1, 4)))
        v[start:stop] = rng.integers(0, p, stop - start)
        b = M @ v % p
        center, hw = int(rng.integers(0, cols)), int(rng.integers(1, 4))
        got = solve_localized(M, b, p, center, hw)
        assert np.array_equal(got, solve_localized_by_trimming(M, b, p, center, hw))
        assert np.array_equal(M @ got % p, b)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_localized_matches_trimming_on_encoding_matrices(p):
    for parent, blocks in ((flagship(p), 8), (random_parent(p, 2, 4, 1, 0), 4)):
        A = encoding_matrix(parent, blocks)
        B = encoding_matrix(parent, parent.n * blocks // parent.k)
        K, n, step = A.shape[1], parent.n, parent.n**2 // parent.k
        for i in range(K):
            blk = i // parent.k
            for M, b, center, hw in ((B.T, A[:, i], blk * step, step),
                                     (A.T, -_unit(K, i) % p, blk * n, n)):
                assert np.array_equal(solve_localized(M, b, p, center, hw),
                                      solve_localized_by_trimming(M, b, p, center, hw))


def test_solve_localized_of_zero_and_of_an_inconsistent_system():
    M = encoding_matrix(flagship(3), 6).T
    b = np.zeros(M.shape[0], dtype=np.int64)
    for center in (0, 5, M.shape[1] - 1):
        got = solve_localized(M, b, 3, center, 2)
        assert not got.any()
        assert np.array_equal(got, solve_localized_by_trimming(M, b, 3, center, 2))
    M = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    for solve in (solve_localized, solve_localized_by_trimming):
        with pytest.raises(AssertionError, match="unexpectedly inconsistent"):
            solve(M, [0, 0, 1], 3, 1, 1)


@pytest.mark.parametrize("window", [1, -1])
def test_window_below_m_plus_one_blocks_is_rejected(window):
    with pytest.raises(ValueError, match="window must cover at least m \\+ 1 parent blocks"):
        QccCode(flagship(2), window)


def test_parent_with_delay_is_rejected():
    parent = ConvCode(PolyMatrix.from_coeffs([[[0, 1], [0, 1, 1]]], 2))
    with pytest.raises(ValueError, match="delay D\\^1"):
        QccCode(parent, 4)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("k, n, m", [(1, 2, 2), (1, 3, 1), (2, 4, 1)])
@pytest.mark.parametrize("seed", [0, 1])
def test_stabilizer_invariants_of_random_parents(p, k, n, m, seed):
    parent = random_parent(p, k, n, m, seed)
    code = QccCode(parent, 6 if k == 1 else 4)
    stab = code.stabilizer
    gens, lx, lz = stab.generators, stab.logical_x, stab.logical_z
    assert len(lx) == len(lz) == code.k_info
    gen_matrix = np.array([g.symplectic() for g in gens])
    assert linalg.rank(gen_matrix, p) == len(gens) == code.L - code.k_info
    for i, a in enumerate(gens):
        assert all(a.sym_product(b) == 0 for b in gens[i + 1 :])
        assert all(a.sym_product(b) == 0 for b in lx + lz)
    for i, a in enumerate(lx):
        assert [bool(a.sym_product(b)) for b in lz] == [i == j for j in range(len(lz))]
    for op in lx + lz:
        sup = np.flatnonzero((op.x != 0) | (op.z != 0))
        assert 0 < sup[-1] - sup[0] + 1 <= code.support_bound


@pytest.mark.parametrize("parent", [flagship(2), flagship(3), ConvCode.from_json(WIDE)],
                         ids=["flagship-p2", "flagship-p3", "wide"])
def test_logical_templates_are_the_reference_window_logicals(parent):
    code = QccCode(parent, 4)
    ref = QccCode(parent, 4 * parent.m + 6)
    stab, mid = ref.stabilizer, ref.k_info // 2
    for kind, op in (("logical-x", stab.logical_x[mid]), ("logical-z", stab.logical_z[mid])):
        pattern, start = _normalize(op)
        (template,) = [t for t in code.templates if t.kind == kind]
        assert template.pattern == pattern
        assert template.offset == start % code.regs_per_block
