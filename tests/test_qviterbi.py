"""Error-trellis decoders against exhaustive oracles, and the size cap."""

import numpy as np
import pytest

from qcclab import ConvCode, PolyMatrix, QccCode, build_trellis, qviterbi
from qcclab.channel import ChannelModel, ChannelSpec, sample_error
from qcclab.convcode import StateCapError
from qcclab.pauli import PauliWindow, StabilizerWindow
from qcclab.qviterbi import (
    ErrorTrellis,
    batch_decode,
    build_error_trellis,
    qva_decode,
    streaming_decode,
)
from qcclab.statevec import StateVector

from oracles import (
    min_weight_for_syndrome,
    min_weight_lex_correction,
    section_tables_by_sorting,
)
from test_qcc import random_parent

# windows whose solution cosets hold at most 3^10 operators: the flagship
# taps over GF(2) at W=3 (2^15) and the m=1 parent (1, 1+D) over GF(3) at W=2
SMALL = {
    "p2": ([[[1, 0, 1], [1, 1, 1]]], 2, 3),
    "p3": ([[[1], [1, 1]]], 3, 2),
}
FLAGSHIP = SMALL["p2"][0]
ONE_PLUS_D = SMALL["p3"][0]


def small_code(name):
    taps, p, window = SMALL[name]
    return QccCode(ConvCode(PolyMatrix.from_coeffs(taps, p)), window)


def sampled_syndromes(code, count, p_err=0.2, seed=11):
    spec = ChannelSpec(p_err, ChannelModel.DEPOLARIZING, code.N)
    errors = [sample_error(spec, code.L, (seed, i)) for i in range(count)]
    return np.array([code.stabilizer.syndrome(e) for e in errors])


@pytest.fixture(scope="module", params=sorted(SMALL))
def small(request):
    code = small_code(request.param)
    return code, build_error_trellis(code)


def test_costs_match_exhaustive_minimum(small):
    code, trellis = small
    for syn in sampled_syndromes(code, 12):
        assert qva_decode(trellis, syn).cost == min_weight_for_syndrome(code.stabilizer, syn)


def test_ties_break_toward_lexicographically_smallest_correction(small):
    code, trellis = small
    for syn in sampled_syndromes(code, 12, seed=12):
        weight, x, z = min_weight_lex_correction(code.stabilizer, syn)
        rec = qva_decode(trellis, syn)
        assert rec.cost == weight
        assert np.array_equal(rec.correction.x, x)
        assert np.array_equal(rec.correction.z, z)


def test_batch_decode_takes_a_matrix_of_syndromes(small):
    code, trellis = small
    syn = sampled_syndromes(code, 1)[0]
    with pytest.raises(ValueError, match=rf"expected an \(M, {trellis.G}\) array"):
        batch_decode(trellis, syn)
    xs, zs, costs = batch_decode(trellis, np.zeros((0, trellis.G), dtype=np.int64))
    assert (xs.shape, zs.shape, costs.shape) == ((0, code.L), (0, code.L), (0,))


def test_batch_corrections_equal_scalar_corrections(small):
    code, trellis = small
    syns = sampled_syndromes(code, 40, seed=13)
    # a chunk smaller than the batch exercises the chunk boundaries
    xs, zs, costs = batch_decode(trellis, syns, chunk=16)
    for row, syn in enumerate(syns):
        rec = qva_decode(trellis, syn)
        assert np.array_equal(xs[row], rec.correction.x)
        assert np.array_equal(zs[row], rec.correction.z)
        assert costs[row] == rec.cost


@pytest.fixture(scope="module")
def long_window():
    code = QccCode(ConvCode(PolyMatrix.from_coeffs(FLAGSHIP, 2)), 12)
    return code, build_error_trellis(code)


# streaming_decode at traceback 6 on flagship W=12 for the syndromes of
# sampled_syndromes(code, 12, p_err=0.1, seed=21), recorded when each block
# was one trellis section; the cuts must not change them
STREAMED_AT_6 = [
    "IIIIIYIXIIIIIXIIIIIIIIIIIIIIIIIIIIIIIIIIXIZIIIII",
    "IIIIIIIIIIIIIIYIIIIIIIIIIIIIIIIIIIIIIIYIIIIIIIII",
    "IIIIIIIIIIIIIYIIIIIIIYIIIIIIXIIIIIXIIIIZIIIIIIII",
    "IIIIIIIZIIIIYIIIIIIIIIXIXIIXIIIIIIIIIIIIIIIIIIII",
    "XIIIIIIIYIIIIIIIIIIIIXIIIIIIIIYXIIIIIIIZIIIIIIII",
    "IIIIIIIIIIIIIIIIIXIIIIIIIIYXIIIIIIIIIXIIIIIIIIII",
    "IXIIIIIIXIIIIIIIXIIIIIIIIIIIIXIIIXIIIIIXIXIIIIII",
    "IIIIIIIIIIXZIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIZI",
    "XIIIIXIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIIII",
    "IIIIXIXIIIIIIIIIIIYXIIIIIIIIIIIIIIIIIXIIIIIIXIII",
    "IIIIIIXIIIIIIIIIIXZIIIIIIIIIIIIIIIIIIIIIIIZIIXII",
    "IYIIIIIIIIYIIIIIIIIIIIIIIIIXIIIIIIIIYIIIXIIIIIII",
]


class TestStreaming:
    def test_matches_full_window_on_isolated_errors(self, long_window):
        code, trellis = long_window
        L, step = code.L, code.regs_per_block
        for a, b in ((step + 1, L - 2 * step), (2, L // 2)):
            x = np.zeros(L, dtype=np.int64)
            z = np.zeros(L, dtype=np.int64)
            x[a] = 1
            z[b] = 1
            syn = code.stabilizer.syndrome(PauliWindow(x, z, 2))
            full = qva_decode(trellis, syn).correction
            segments = streaming_decode(trellis, syn, traceback=6)
            assert len(segments) == trellis.n_blocks
            assert np.array_equal(sum(s.correction.x for s in segments), full.x)
            assert np.array_equal(sum(s.correction.z for s in segments), full.z)

    def test_long_traceback_equals_full_window_decoder(self, long_window):
        code, trellis = long_window
        for syn in sampled_syndromes(code, 20, p_err=0.1, seed=14):
            full = qva_decode(trellis, syn)
            for traceback in (trellis.n_blocks, trellis.n_blocks + 3):
                segments = streaming_decode(trellis, syn, traceback)
                assert np.array_equal(sum(s.correction.x for s in segments), full.correction.x)
                assert np.array_equal(sum(s.correction.z for s in segments), full.correction.z)
                assert tuple(b for s in segments for b in s.branches) == full.branches

    def test_short_traceback_reproduces_recorded_corrections(self, long_window):
        code, trellis = long_window
        for syn, want in zip(sampled_syndromes(code, 12, p_err=0.1, seed=21), STREAMED_AT_6):
            segments = streaming_decode(trellis, syn, traceback=6)
            assert len(segments) == trellis.n_blocks
            x = sum(s.correction.x for s in segments)
            z = sum(s.correction.z for s in segments)
            assert PauliWindow(x, z, 2).to_string() == want

    def test_rejects_traceback_below_minimum(self, long_window):
        code, trellis = long_window
        with pytest.raises(ValueError, match="below minimum"):
            streaming_decode(trellis, np.zeros(len(code.stabilizer.generators), int), 1)


class TestStateCap:
    def test_error_trellis_raises_the_classical_class(self, rate_half_parent, monkeypatch):
        monkeypatch.setenv("QCC_STATE_CAP", "4")
        with pytest.raises(StateCapError, match="exceed cap 4"):
            build_error_trellis(small_code("p2"))
        with pytest.raises(StateCapError):
            build_trellis(rate_half_parent, state_cap=2)

    def test_environment_variable_honoured_by_every_cap(self, rate_half_parent, monkeypatch):
        monkeypatch.setenv("QCC_STATE_CAP", "2")
        with pytest.raises(StateCapError):
            build_trellis(rate_half_parent)
        with pytest.raises(StateCapError):
            build_error_trellis(small_code("p2"))
        with pytest.raises(StateCapError):
            StateVector.basis(2, 2, [0, 0])

    def test_section_over_the_cap_raises_before_its_tables(self, monkeypatch):
        # 7 open generators fit the cap, but one section would tabulate
        # 5^13 candidates, a 4.55 GiB table
        def no_tables(*args):
            raise AssertionError("section table built")

        monkeypatch.setattr(ErrorTrellis, "_section_tables", no_tables)
        with pytest.raises(StateCapError, match="5\\^13 candidates .* exceed cap 16777216$"):
            build_error_trellis(QccCode(random_parent(5, 2, 4, 1, 1), 2))

    def test_widest_flagship_p5_window_builds_under_the_cap(self):
        trellis = build_error_trellis(QccCode(ConvCode(PolyMatrix.from_coeffs(FLAGSHIP, 5)), 10))
        sections = zip(trellis.bounds, trellis.bounds[1:])
        # 5^10 candidates in its widest section, under the default cap of 2^24
        assert max(trellis._n_open[a] + 2 * (b - a) for a, b in sections) == 10
        assert len(trellis._sections) == len(trellis.bounds) - 1


@pytest.mark.parametrize("value", [5, -1, 1.7], ids=["above", "negative", "fraction"])
def test_decoders_reject_syndrome_values_outside_the_field(small, value):
    code, trellis = small
    syn = np.zeros(len(code.stabilizer.generators), dtype=type(value))
    syn[1] = value
    field = f"GF\\({code.N}\\)"
    with pytest.raises(ValueError, match=field):
        qva_decode(trellis, syn)
    with pytest.raises(ValueError, match=field):
        batch_decode(trellis, syn[None])


def _decoding_work(trellis, bounds):
    """The work the section cuts `bounds` cost, from the generator spans:
    per section [a, b), p^(o_a + 2(b-a) - c(a, b)) candidates and p^(o_b)
    survivors, with o_j the generators open across boundary j and c(a, b)
    those whose last register lies in [a, b)."""
    sup = (trellis.gen_x != 0) | (trellis.gen_z != 0)
    first = sup.argmax(axis=1)
    last = trellis.L - 1 - sup[:, ::-1].argmax(axis=1)
    p = trellis.p

    def n_open(j):
        return int(((first < j) & (j <= last)).sum())

    return sum(
        p ** (n_open(a) + 2 * (b - a) - int(((a <= last) & (last < b)).sum())) + p ** n_open(b)
        for a, b in zip(bounds, bounds[1:])
    )


RATE_THIRD = {"p": 2, "k": 1, "n": 3, "G": [[[1, 1], [1, 0, 1], [1, 1, 1]]]}
WIDE = {"p": 2, "k": 2, "n": 4, "G": [[[1, 1], [1], [0, 1], [1, 1]],
                                      [[0, 1], [1, 1], [1], [1]]]}


@pytest.mark.parametrize("parent, p, window", [
    (FLAGSHIP, 2, 10), (FLAGSHIP, 3, 10), (WIDE, 2, 4), (RATE_THIRD, 2, 4),
], ids=["flagship-p2", "flagship-p3", "rate-2/4", "rate-1/3"])
def test_sections_are_the_least_work_cuts_of_each_block(parent, p, window):
    if isinstance(parent, dict):
        code = QccCode(ConvCode.from_json(parent), window)
    else:
        code = QccCode(ConvCode(PolyMatrix.from_coeffs(parent, p)), window)
    trellis = build_error_trellis(code)
    br, L = trellis.block_regs, trellis.L
    blocks = list(range(0, L, br)) + [L]
    assert set(blocks) <= set(trellis.bounds)
    assert list(trellis.bounds) == sorted(set(trellis.bounds))
    assert _decoding_work(trellis, trellis.bounds) <= _decoding_work(trellis, blocks)
    # every subset of the interior cuts of every block, one block at a time
    for lo, hi in zip(blocks, blocks[1:]):
        chosen = [b for b in trellis.bounds if lo <= b <= hi]
        inner = range(lo + 1, hi)
        least = min(
            _decoding_work(trellis, [lo, *(c for i, c in enumerate(inner) if mask >> i & 1), hi])
            for mask in range(1 << len(inner))
        )
        assert _decoding_work(trellis, chosen) == least


def test_rate_third_parent_decodes_under_the_default_cap():
    code = QccCode(ConvCode.from_json(RATE_THIRD), 4)
    trellis = build_error_trellis(code)
    syns = sampled_syndromes(code, 24, p_err=0.1, seed=15)
    xs, zs, costs = batch_decode(trellis, syns, chunk=10)
    for row, syn in enumerate(syns):
        rec = qva_decode(trellis, syn)
        assert np.array_equal(xs[row], rec.correction.x)
        assert np.array_equal(zs[row], rec.correction.z)
        assert costs[row] == rec.cost == rec.correction.weight()
        assert np.array_equal(code.stabilizer.syndrome(PauliWindow(xs[row], zs[row], 2)), syn)


TABLE_CASES = {
    "flagship-p2": (FLAGSHIP, 2, 10),
    "flagship-p3": (FLAGSHIP, 3, 10),
    "flagship-p5": (FLAGSHIP, 5, 4),
    "rate-2/4": (WIDE, 2, 4),
    "rate-1/3": (RATE_THIRD, 2, 4),
    "1+D-p3": (ONE_PLUS_D, 3, 4),
    "1+D-p7": (ONE_PLUS_D, 7, 4),
    **{f"random-p{p}-k{k}": ((p, k), p, 4 // k) for p in (2, 3, 5) for k in (1, 2)},
}


def table_case(name):
    parent, p, window = TABLE_CASES[name]
    if isinstance(parent, dict):
        parent = ConvCode.from_json(parent)
    elif isinstance(parent, tuple):
        k = parent[1]
        # rate 1/2 with memory 2 like the flagship, rate 2/4 with memory 1
        parent = random_parent(p, k, 2 * k, 3 - k, 0)
    else:
        parent = ConvCode(PolyMatrix.from_coeffs(parent, p))
    return QccCode(parent, window)


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_section_tables_equal_the_sorted_construction(name):
    trellis = build_error_trellis(table_case(name))
    states = trellis.p ** trellis.max_open
    for tab in trellis._sections:
        src, label, step = section_tables_by_sorting(trellis, tab["lo"], tab["hi"])
        got_step = tab["step"][tab["step_row"]]
        assert tab["src"].shape == got_step.shape == src.shape
        # a candidate's label is its step key mod the number of branches
        assert np.array_equal(step % len(tab["bx"]), label)
        # every group's candidates as a multiset of (src, label, step)
        got = np.sort(got_step.astype(np.int64) * states + tab["src"], axis=-1)
        assert np.array_equal(got, np.sort(step.astype(np.int64) * states + src, axis=-1))


def test_section_whose_groups_differ_in_fan_in_is_rejected():
    trellis = build_error_trellis(table_case("flagship-p3"))
    lo, hi = trellis.bounds[1], trellis.bounds[2]
    opening = [g for g in range(trellis.G) if lo <= trellis._first[g] < hi]
    assert len(opening) >= 2
    # two generators that open alike leave most of their digit pairs unreached
    a, b = opening[:2]
    trellis.gen_x[b, lo:hi] = trellis.gen_x[a, lo:hi]
    trellis.gen_z[b, lo:hi] = trellis.gen_z[a, lo:hi]
    with pytest.raises(AssertionError, match="differ in fan-in"):
        trellis._section_tables(lo, hi)


# over GF(3) one section of the summed basis has 3^15 candidates, so a
# syndrome takes about 35 ms there, and fewer are drawn
@pytest.mark.parametrize("p, draws", [(2, 300), (3, 50)])
def test_results_do_not_depend_on_the_generator_basis(p, draws):
    """A trellis over the sums of consecutive generators keeps more of them
    open but decodes every syndrome, given in its own generator order, to
    the same correction at the same cost."""
    code = QccCode(ConvCode(PolyMatrix.from_coeffs(FLAGSHIP, p)), 8)
    stab = code.stabilizer
    gens = stab.gen_matrix
    summed = np.vstack([(gens[:-1] + gens[1:]) % p, gens[-1:]])
    none = np.zeros((0, 2 * code.L), dtype=np.int64)
    bare = StabilizerWindow(summed, none, none, p)
    ours, theirs = build_error_trellis(code), ErrorTrellis(bare.gen_matrix, p, code.regs_per_block)
    assert (ours.max_open, theirs.max_open) == (6, 10)
    spec = ChannelSpec(0.1, ChannelModel.DEPOLARIZING, p)
    errors = [sample_error(spec, code.L, (3, i)) for i in range(draws)]
    ox, oz, ocost = batch_decode(ours, np.array([stab.syndrome(e) for e in errors]))
    tx, tz, tcost = batch_decode(theirs, np.array([bare.syndrome(e) for e in errors]))
    assert np.array_equal(ocost, tcost)
    assert np.array_equal(ox, tx) and np.array_equal(oz, tz)
    for e in errors[:20]:
        assert qva_decode(theirs, bare.syndrome(e)) == qva_decode(ours, stab.syndrome(e))


@pytest.mark.parametrize("gens", [["ZZII", "ZIZI"], ["ZZII", "IIII"], ["ZZII", "ZZII"]],
                         ids=["same-start", "zero", "repeated"])
def test_generators_without_distinct_starts_are_rejected(gens):
    rows = np.array([PauliWindow.from_string(g).symplectic() for g in gens])
    none = np.zeros((0, 8), dtype=np.int64)
    bare = StabilizerWindow(rows, none, none, 2)
    with pytest.raises(ValueError, match="distinct register-interleaved"):
        ErrorTrellis(bare.gen_matrix, 2, 2)


# windows too wide for the exhaustive coset oracle (5^10 and more
# operators), so each correction is checked against its syndrome, the
# scalar decoder and the sampled error's weight instead
WIDE_FIELDS = {"flagship-p5": (FLAGSHIP, 5, 3), "1+D-p7": (ONE_PLUS_D, 7, 3)}


@pytest.mark.parametrize("name", sorted(WIDE_FIELDS))
def test_batch_decoding_over_wider_fields(name):
    taps, p, window = WIDE_FIELDS[name]
    code = QccCode(ConvCode(PolyMatrix.from_coeffs(taps, p)), window)
    trellis = build_error_trellis(code)
    spec = ChannelSpec(0.15, ChannelModel.DEPOLARIZING, code.N)
    errors = [sample_error(spec, code.L, (16, i)) for i in range(24)]
    syns = np.array([code.stabilizer.syndrome(e) for e in errors])
    xs, zs, costs = batch_decode(trellis, syns, chunk=10)
    for row, (syn, error) in enumerate(zip(syns, errors)):
        rec = qva_decode(trellis, syn)
        assert np.array_equal(xs[row], rec.correction.x)
        assert np.array_equal(zs[row], rec.correction.z)
        correction = PauliWindow(xs[row], zs[row], p)
        assert np.array_equal(code.stabilizer.syndrome(correction), syn)
        assert costs[row] == rec.cost == correction.weight() <= error.weight()


def test_batch_chunks_are_capped_by_candidate_count(monkeypatch):
    code = QccCode(ConvCode(PolyMatrix.from_coeffs(FLAGSHIP, 3)), 8)
    trellis = build_error_trellis(code)
    syns = sampled_syndromes(code, 11, p_err=0.1, seed=14)
    default = batch_decode(trellis, syns)
    for chunk in (1, 3):
        assert all(np.array_equal(a, b)
                   for a, b in zip(batch_decode(trellis, syns, chunk=chunk), default))
    # a cap of two rows of the widest section splits the default chunk
    widest = max(tab["src"][0].size for tab in trellis._sections)
    monkeypatch.setattr(qviterbi, "BATCH_CANDIDATES", 2 * widest + 1)
    rows = []
    original = qviterbi._decode

    def spy(trellis, syndromes, settled=None):
        rows.append(len(syndromes))
        return original(trellis, syndromes, settled)

    monkeypatch.setattr(qviterbi, "_decode", spy)
    capped = batch_decode(trellis, syns)
    assert rows == [2, 2, 2, 2, 2, 1]
    assert all(np.array_equal(a, b) for a, b in zip(capped, default))
