"""Window distance and its count against exhaustive enumeration, and
Monte Carlo counts against a trial-by-trial reference."""

import pytest

from qcclab import ConvCode, PolyMatrix, QccCode
from qcclab import channel
from qcclab.channel import measure_distance
from qcclab.convcode import StateCapError
from qcclab.qviterbi import build_error_trellis

from oracles import acting_weights_up_to, distance_by_enumeration, trials_by_reference

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


def test_explicit_interior_matches_exhaustive_search():
    code = code_of(FLAGSHIP, 2, 8)
    report = measure_distance(code, interior=(6, 18))
    assert (report.d, report.count_at_d, report.interior) == \
        distance_by_enumeration(code, interior=(6, 18))


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
