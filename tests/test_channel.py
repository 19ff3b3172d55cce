"""Window distance and its count against exhaustive enumeration, Monte
Carlo counts against a trial-by-trial reference, and the chunk sampler
against the per-trial numpy streams."""

import warnings

import numpy as np
import pytest

from qcclab import ConvCode, PolyMatrix, QccCode, linalg
from qcclab import channel
from qcclab.channel import measure_distance
from qcclab.convcode import StateCapError
from qcclab.qviterbi import build_error_trellis

from oracles import (acting_weights_up_to, distance_by_enumeration, minimal_span_by_rref,
                     trials_by_reference)

FLAGSHIP = [[[1, 0, 1], [1, 1, 1]]]
ONE_PLUS_D = [[[1], [1, 1]]]
# a non-catastrophic rate-2/4 parent with 8 registers per block
WIDE = {"p": 2, "k": 2, "n": 4, "G": [[[1, 1], [1], [0, 1], [1, 1]],
                                      [[0, 1], [1, 1], [1], [1]]]}


def code_of(taps, p, window):
    if taps == "wide":
        return QccCode(ConvCode.from_json(WIDE), window)
    return QccCode(ConvCode(PolyMatrix.from_coeffs(taps, p)), window)


# flagship p=2 at W >= 10 and p=3 at W=9 agree too, but take seconds to
# minutes to enumerate
@pytest.mark.parametrize("taps, p, window", [
    (FLAGSHIP, 2, 8),
    (FLAGSHIP, 3, 8),
    (ONE_PLUS_D, 3, 6),
    (ONE_PLUS_D, 5, 5),
    ("wide", 2, 6),
], ids=["flagship-p2-W8", "flagship-p3-W8", "1+D-p3-W6", "1+D-p5-W5", "wide-W6"])
def test_distance_matches_exhaustive_search(taps, p, window):
    code = code_of(taps, p, window)
    report = measure_distance(code)
    assert (report.d, report.count_at_d, report.interior) == distance_by_enumeration(code)


@pytest.mark.parametrize("taps, p, window, message", [
    (FLAGSHIP, 5, 6, "no logically acting operator in the interior range"),
    ("wide", 2, 4, "empty interior range"),
], ids=["flagship-p5-W6", "wide-W4"])
def test_distance_errors_match_exhaustive_search(taps, p, window, message):
    code = code_of(taps, p, window)
    with pytest.raises(ValueError, match=message):
        distance_by_enumeration(code)
    with pytest.raises(ValueError, match=message):
        measure_distance(code)


def test_flagship_p3_w10_against_low_weight_listing():
    # 3^20 kernel vectors are out of reach; listing every operator of
    # weight <= 3 on the interior is not
    code = code_of(FLAGSHIP, 3, 10)
    report = measure_distance(code)
    assert (report.d, report.count_at_d) == (3, 2)
    assert acting_weights_up_to(code, 3) == {3: 2}


def test_flagship_p5_w8_against_low_weight_listing():
    code = code_of(FLAGSHIP, 5, 8)
    report = measure_distance(code)
    assert (report.d, report.count_at_d) == (4, 24)
    assert acting_weights_up_to(code, 3) == {}


def test_flagship_p5_w10_is_counted_under_the_state_cap():
    # no operator of weight <= 3 acts here either; listing them takes
    # about 15 s, too long for this suite
    report = measure_distance(code_of(FLAGSHIP, 5, 10))
    assert (report.d, report.count_at_d) == (4, 88)


def test_explicit_interior_matches_exhaustive_search():
    code = code_of(FLAGSHIP, 2, 8)
    report = measure_distance(code, interior=(6, 18))
    assert (report.d, report.count_at_d, report.interior) == \
        distance_by_enumeration(code, interior=(6, 18))


def test_interior_cut_inside_blocks_matches_exhaustive_search():
    # (5, 19) cuts both edges inside a block of 4 registers
    code = code_of(FLAGSHIP, 3, 8)
    report = measure_distance(code, interior=(5, 19))
    assert (report.d, report.count_at_d, report.interior) == \
        distance_by_enumeration(code, interior=(5, 19))


# flagship p=2 at W=8 has 32 registers
@pytest.mark.parametrize("lo, hi", [(-4, 20), (4, 36)], ids=["below-0", "past-L"])
def test_interior_outside_the_window_is_rejected(lo, hi):
    code = code_of(FLAGSHIP, 2, 8)
    with pytest.raises(ValueError, match=f"\\[{lo}, {hi}\\) is not inside the 32 registers"):
        measure_distance(code, interior=(lo, hi))


def test_count_overflow_raises(monkeypatch):
    # flagship p=2 at W=8 has 3 operators of weight 3; with a count limit
    # of 2 the pass must refuse instead of wrapping
    monkeypatch.setattr(channel, "_COUNT_MAX", 2)
    with pytest.raises(ValueError, match="exceeds int64"):
        measure_distance(code_of(FLAGSHIP, 2, 8))


def _spans(rows):
    nz = rows != 0
    return sorted(zip(nz.argmax(axis=1).tolist(),
                      (rows.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)).tolist()))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_interior_rows_are_the_minimal_span_form_of_their_reduced_form(p):
    rng = np.random.default_rng([p, 428])
    log_rng = np.random.default_rng([p, 429])
    L, lo, hi = 7, 1, 6

    def interleaved(mat, L, lo, hi):
        rows = np.empty((len(mat), 2 * (hi - lo)), dtype=np.int64)
        rows[:, 0::2], rows[:, 1::2] = mat[:, lo:hi], mat[:, L + lo : L + hi]
        return rows

    for _ in range(20):
        mat = rng.integers(0, p, (6, 2 * L)) * (rng.random((6, 2 * L)) < 0.4)
        mat[1] = 0  # a zero row, and two rows dependent on the others
        mat[4] = (mat[0] + 2 * mat[2]) % p
        mat[5] = (p - 1) * mat[3] % p
        logs = log_rng.integers(0, p, (3, 2 * L)) * (log_rng.random((3, 2 * L)) < 0.4)
        logs[0] = (mat[0] + mat[3]) % p  # inside the generators' span
        G, J = channel._interior_bases(mat, logs, L, lo, hi, p)
        for basis, rows in ((G, mat), (J, np.concatenate([mat, logs]))):
            # both over the interior's registers, as (x | z) rows
            got = interleaved(basis, hi - lo, 0, hi - lo)
            want = minimal_span_by_rref(linalg.rref(interleaved(rows, L, lo, hi), p)[0], p)
            assert got.shape == want.shape
            assert linalg.rank(np.concatenate([got, want]), p) == len(want)
            # minimal span forms of one space share their spans
            assert _spans(got) == _spans(want)


def test_wilson_interval_ends():
    assert channel.wilson_interval(0, 50)[0] == 0.0
    assert channel.wilson_interval(10, 10)[1] == 1.0
    assert channel.wilson_interval(0, 0) == (0.0, 1.0)
    # inside the range both bounds are the score interval's, as before
    lo, hi = channel.wilson_interval(3, 50)
    assert 0 < lo < 3 / 50 < hi < 1
    lo, hi = channel.wilson_interval(0, 50)
    assert hi == pytest.approx(0.0713476, rel=1e-6)


@pytest.mark.parametrize("count, total", [(-1, 10), (11, 10), (1, 0)])
def test_wilson_interval_rejects_counts_outside_the_total(count, total):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"count {count} is not in \\[0, {total}\\]"):
            channel.wilson_interval(count, total)


def test_state_cap_raises(monkeypatch):
    monkeypatch.setenv("QCC_STATE_CAP", "8")
    with pytest.raises(StateCapError):
        measure_distance(code_of(FLAGSHIP, 2, 8))


def test_run_trials_with_a_built_trellis_gives_the_same_report():
    code = code_of(FLAGSHIP, 2, 8)
    trellis = build_error_trellis(code)
    for p_err in (0.03, 0.1):
        spec = channel.ChannelSpec(p_err, N=2)
        assert (channel.run_trials(code, spec, 200, seed=3, trellis=trellis)
                == channel.run_trials(code, spec, 200, seed=3))


@pytest.mark.parametrize("other", [(FLAGSHIP, 2, 10), (FLAGSHIP, 3, 8), (ONE_PLUS_D, 2, 8)],
                         ids=["other-window", "other-field", "other-parent"])
def test_run_trials_rejects_a_trellis_of_another_code(other):
    code = code_of(FLAGSHIP, 2, 8)
    spec = channel.ChannelSpec(0.03, N=2)
    with pytest.raises(ValueError, match="built for a different code"):
        channel.run_trials(code, spec, 10, seed=0, trellis=build_error_trellis(code_of(*other)))


@pytest.mark.parametrize("taps, p, window, p_err", [
    (FLAGSHIP, 2, 8, 0.1),
    (FLAGSHIP, 3, 8, 0.1),
    ("wide", 2, 6, 0.1),
], ids=["flagship-p2-W8", "flagship-p3-W8", "wide-W6"])
def test_run_trials_counts_match_trial_by_trial_reference(taps, p, window, p_err):
    code = code_of(taps, p, window)
    spec = channel.ChannelSpec(p_err, N=p)
    reports = [channel.run_trials(code, spec, 60, seed) for seed in (1, 2, 3)]
    assert reports == [trials_by_reference(code, spec, 60, seed) for seed in (1, 2, 3)]
    # some residuals act on the payload, so the comparison is not vacuous
    assert sum(r.info_symbol_errors for r in reports) > 0


@pytest.mark.parametrize("taps, p, window", [
    (FLAGSHIP, 2, 8),
    (FLAGSHIP, 3, 8),
    (ONE_PLUS_D, 5, 8),
], ids=["flagship-p2-W8", "flagship-p3-W8", "1+D-p5-W8"])
def test_each_distinct_syndrome_decodes_once_across_chunks(monkeypatch, taps, p, window):
    # 40 trials in chunks of 16, 16 and 8
    monkeypatch.setattr(channel, "CHUNK", 16)
    decoded = []
    original = channel.batch_decode

    def spy(trellis, syndromes, chunk):
        decoded.append(len(syndromes))
        return original(trellis, syndromes, chunk)

    monkeypatch.setattr(channel, "batch_decode", spy)
    code = code_of(taps, p, window)
    spec = channel.ChannelSpec(0.1, N=p)
    report = channel.run_trials(code, spec, 40, seed=5)
    assert report == trials_by_reference(code, spec, 40, 5)
    assert report.info_symbol_errors > 0
    # repeated syndromes were decoded once per chunk
    assert len(decoded) == 3 and sum(decoded) < 40


@pytest.mark.parametrize("model", list(channel.ChannelModel), ids=lambda m: m.value)
@pytest.mark.parametrize("N", [2, 3, 5, 7])
@pytest.mark.parametrize("L", [7, 8, 41])
def test_chunk_sampler_equals_the_per_trial_streams(model, N, L):
    spec = channel.ChannelSpec(0.3, model, N)
    for seed, first in ((0, 0), (2**63 - 1, 2**40 + 3)):
        x, z = channel._sample_chunk(spec, L, seed, first, 40)
        assert x.shape == z.shape == (40, L)
        for i in range(40):
            rx, rz = channel._sample_xz(spec, L, channel.trial_rng(seed, first + i))
            assert (x[i] == rx).all() and (z[i] == rz).all()


def test_run_trials_draws_each_chunk_from_the_per_trial_streams(monkeypatch):
    # CHUNK + 5 trials from an offset: two chunks, the second a short one
    code = code_of(FLAGSHIP, 2, 8)
    spec = channel.ChannelSpec(0.1, N=2)
    seed, offset = 2**63 - 1, 7
    drawn = []
    original = channel._sample_chunk

    def spy(*args):
        drawn.append((args[3], original(*args)))
        return drawn[-1][1]

    monkeypatch.setattr(channel, "_sample_chunk", spy)
    channel.run_trials(code, spec, channel.CHUNK + 5, seed, trial_offset=offset)
    assert [(first, len(x)) for first, (x, _) in drawn] == \
        [(offset, channel.CHUNK), (offset + channel.CHUNK, 5)]
    for first, (x, z) in drawn:
        for i in range(len(x)):
            error = channel.sample_error(spec, code.L, (seed, first + i))
            assert (x[i] == error.x).all() and (z[i] == error.z).all()


def test_trial_ranges_add_up_across_chunk_boundaries(monkeypatch):
    monkeypatch.setattr(channel, "CHUNK", 16)
    code = code_of(FLAGSHIP, 2, 8)
    spec = channel.ChannelSpec(0.1, N=2)
    whole = channel.run_trials(code, spec, 70, seed=0)
    parts = channel.run_trials(code, spec, 23, seed=0).merge(
        channel.run_trials(code, spec, 47, seed=0, trial_offset=23))
    assert whole == parts
    assert whole.info_symbol_errors > 0


def test_bounded_draw_flags_the_words_numpy_rejects():
    # over 3 values (N=2 depolarizing) numpy rejects a word whose low 32
    # bits of u * 3 fall below 2^32 mod 3 = 1, so u = 0 only
    u = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint64)
    value, rejected = channel._lemire(u, 2)
    assert value.tolist() == [0, 0, 1, 2]
    assert rejected.tolist() == [True, False, False, False]
    # over a power of two values nothing is rejected
    value, rejected = channel._lemire(u, 1)
    assert value.tolist() == [0, 0, 1, 1]
    assert not rejected.any()


@pytest.mark.parametrize("taps, p, model", [
    (FLAGSHIP, 2, channel.ChannelModel.DEPOLARIZING),
    (FLAGSHIP, 3, channel.ChannelModel.INDEPENDENT_XZ),
], ids=["p2-depolarizing", "p3-independent-xz"])
def test_rejected_rows_are_drawn_from_their_own_streams(monkeypatch, taps, p, model):
    # flag every third trial, and spoil its vectorized draw, as numpy's
    # redraw after a rejection would: only the per-trial fallback gives the
    # reference's errors back
    original = channel._lemire

    def flag_every_third(u, r):
        value, rejected = original(u, r)
        value, rejected = value.copy(), rejected.copy()
        value[:, ::3] = (value[:, ::3] + 1) % (r + 1)
        rejected[0, ::3] = True
        return value, rejected

    streams = []
    original_rng = channel.trial_rng

    def recording_rng(*key):
        streams.append(key)
        return original_rng(*key)

    monkeypatch.setattr(channel, "_lemire", flag_every_third)
    monkeypatch.setattr(channel, "trial_rng", recording_rng)
    code = code_of(taps, p, 8)
    spec = channel.ChannelSpec(0.1, model, p)
    report = channel.run_trials(code, spec, 60, seed=1)
    assert streams == [(1, t) for t in range(0, 60, 3)]
    assert report == trials_by_reference(code, spec, 60, 1)


@pytest.mark.parametrize("seed, offset, message", [
    (-1, 0, "seed must be in"),
    (2**63, 0, "seed must be in"),
    (0, -1, "at least 0"),
    (0, 2**63 - 5, "below 2\\^63"),
], ids=["negative-seed", "seed-2^63", "negative-offset", "index-2^63"])
def test_run_trials_rejects_keys_outside_int64(seed, offset, message):
    # 10 trials from offset 2^63 - 5 reach index 2^63 + 4
    code = code_of(FLAGSHIP, 2, 8)
    with pytest.raises(ValueError, match=message):
        channel.run_trials(code, channel.ChannelSpec(0.03, N=2), 10, seed, offset)


@pytest.mark.parametrize("trial", [(2**63, 0), (-1, 0), (0, 2**63), (0, -1)],
                         ids=["seed-2^63", "negative-seed", "index-2^63", "negative-index"])
def test_sample_error_rejects_keys_outside_int64(trial):
    with pytest.raises(ValueError):
        channel.sample_error(channel.ChannelSpec(0.03, N=2), 8, trial)


def test_run_trials_rejects_a_negative_trial_count():
    code = code_of(FLAGSHIP, 2, 8)
    with pytest.raises(ValueError, match="trial count must be at least 0, got -5"):
        channel.run_trials(code, channel.ChannelSpec(0.03, N=2), -5, 0)


@pytest.mark.parametrize("seed, trial", [(2**64 - 1, 0), (2**63, 0), (-1, 0), (0, 2**63), (0, -1)],
                         ids=["seed-2^64-1", "seed-2^63", "negative-seed", "index-2^63",
                              "negative-index"])
def test_trial_rng_rejects_keys_outside_int64(seed, trial):
    # numpy would cast 2^64 - 1 with a RuntimeWarning and key seed 0's stream
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be"):
            channel.trial_rng(seed, trial)


def test_numpy_integer_keys_give_the_report_of_python_ints():
    code, spec = code_of(FLAGSHIP, 2, 8), channel.ChannelSpec(0.1, N=2)
    want = channel.run_trials(code, spec, 30, 3)
    got = channel.run_trials(code, spec, np.int64(30), np.int64(3), np.int64(0))
    assert got == want and type(got.seed) is type(got.trials) is int
    assert want.logical_block_errors > 0
    error = channel.sample_error(spec, code.L, (np.int64(3), np.uint64(4)))
    assert error == channel.sample_error(spec, code.L, (3, 4))


@pytest.mark.parametrize("key", [1.5, np.float64(3), "3", True],
                         ids=["fraction", "numpy-float", "str", "bool"])
def test_trial_keys_must_be_integers(key):
    code, spec = code_of(FLAGSHIP, 2, 8), channel.ChannelSpec(0.03, N=2)
    with pytest.raises(TypeError, match="seed must be an integer"):
        channel.run_trials(code, spec, 10, key)
    with pytest.raises(TypeError, match="first trial index must be an integer"):
        channel.run_trials(code, spec, 10, 0, key)
    with pytest.raises(TypeError, match="trial count must be an integer"):
        channel.run_trials(code, spec, key, 0)
    with pytest.raises(TypeError, match="seed must be an integer"):
        channel.sample_error(spec, code.L, (key, 0))
