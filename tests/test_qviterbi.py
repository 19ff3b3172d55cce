"""Error-trellis decoders against exhaustive oracles, and the size cap."""

import numpy as np
import pytest

from qcclab import ConvCode, PolyMatrix, QccCode, build_trellis
from qcclab.channel import ChannelModel, ChannelSpec, sample_error
from qcclab.convcode import StateCapError
from qcclab.pauli import PauliWindow
from qcclab.qviterbi import batch_decode, build_error_trellis, qva_decode, streaming_decode
from qcclab.statevec import StateVector

from oracles import min_weight_for_syndrome, min_weight_lex_correction

# windows whose solution cosets hold at most 3^10 operators: the flagship
# taps over GF(2) at W=3 (2^15) and the m=1 parent (1, 1+D) over GF(3) at W=2
SMALL = {
    "p2": ([[[1, 0, 1], [1, 1, 1]]], 2, 3),
    "p3": ([[[1], [1, 1]]], 3, 2),
}


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
    code = QccCode(ConvCode(PolyMatrix.from_coeffs(SMALL["p2"][0], 2)), 12)
    return code, build_error_trellis(code)


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

    def test_rejects_traceback_below_minimum(self, long_window):
        code, trellis = long_window
        with pytest.raises(ValueError, match="below minimum"):
            streaming_decode(trellis, np.zeros(len(code.stabilizer.generators), int), 1)


class TestStateCap:
    def test_error_trellis_raises_the_classical_class(self, rate_half_parent):
        code = small_code("p2")
        with pytest.raises(StateCapError):
            build_error_trellis(code, state_cap=4)
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
