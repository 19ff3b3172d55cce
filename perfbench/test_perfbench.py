"""Tests of the benchmark harness on small instances of its workloads.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import pytest

import run
import tracing

qcclab = run._load_program()

from workloads import FLAGSHIP_TAPS, MonteCarlo, StateVectorSuite  # noqa: E402

TIMED = ("_s", ".s", "overhead_ratio")


class SmallStateVector(StateVectorSuite):
    SIZES = ((2, 3),)


def small_workloads():
    mc = MonteCarlo({"p": 2, "k": 1, "n": 2, "G": FLAGSHIP_TAPS}, window=8, p_err=0.05,
                    trials=200, distance=True, subsample=4, setup_reps=1)
    return {"mc": mc, "statevec": SmallStateVector(setup_reps=1)}


@pytest.fixture(params=["mc", "statevec"])
def workload(request):
    return small_workloads()[request.param]


def test_same_seed_gives_same_digest(workload):
    _, checks_a, digest_a = run.measure(workload, seed=5, seconds=0)
    _, checks_b, digest_b = run.measure(workload, seed=5, seconds=0)
    assert all(ok for _, ok in checks_a + checks_b)
    assert len(checks_a) == workload.planned_checks()
    assert digest_a == digest_b


def test_traced_run_checks_and_digest_match_untraced(workload):
    _, checks, digest = run.measure(workload, seed=3, seconds=0)
    _, t_checks, t_digest, _ = run.measure_traced(qcclab, workload, seed=3, seconds=0)
    assert [name for name, _ in t_checks] == [name for name, _ in checks]
    assert t_digest == digest


def test_computed_counters_repeat_exactly(workload):
    runs = [run.measure_traced(qcclab, workload, seed=7, seconds=0)[0] for _ in range(2)]
    counters = {k for k in runs[0] if not k.endswith(TIMED)}
    assert {k: runs[0][k] for k in counters} == {k: runs[1][k] for k in counters}
    assert list(runs[0]) == list(tracing.LAYER_METRICS)
    assert set(tracing.COMPUTED) <= counters


def test_trellis_counters_match_the_trellis():
    mc = small_workloads()["mc"]
    metrics = run.measure_traced(qcclab, mc, seed=1, seconds=0)[0]
    trellis = qcclab.qviterbi.build_error_trellis(mc.setup())
    assert metrics["qviterbi.trellis.states_max"][0] == 2 ** trellis.max_open
    assert metrics["qviterbi.trellis.branches_per_block"][0] == 4 ** trellis.block_regs
    assert metrics["qviterbi.build_error_trellis.calls"][0] == 2
    assert metrics["qviterbi.qva_decode.calls"][0] == mc.subsample


def test_untraced_run_installs_no_wrappers(monkeypatch):
    mc = small_workloads()["mc"]
    seen = []
    original = qcclab.channel.run_trials

    def probe(*args, **kwargs):
        seen.append(tracing.installed_wrappers(qcclab))
        return original(*args, **kwargs)

    monkeypatch.setattr(qcclab.channel, "run_trials", probe)
    run.measure(mc, seed=2, seconds=0)
    assert len(seen) == run.MIN_PASSES and not any(seen)


def test_wrappers_cover_every_binding_and_are_removed():
    before = {
        "channel.batch_decode": qcclab.channel.batch_decode,
        "qcc.catastrophic_check": qcclab.qcc.catastrophic_check,
        "StabilizerWindow.__init__": qcclab.pauli.StabilizerWindow.__init__,
        "QccCode.stabilizer": qcclab.qcc.QccCode.__dict__["stabilizer"].func,
    }
    tr = tracing.Tracer()
    tr.install(qcclab)
    try:
        found = set(tracing.installed_wrappers(qcclab))
        assert {"qcclab.channel.batch_decode", "qcclab.qviterbi.batch_decode",
                "qcclab.qva_decode", "qcclab.qcc.catastrophic_check",
                "StabilizerWindow.__init__", "QccCode.stabilizer"} <= found
    finally:
        tr.uninstall()
    assert tracing.installed_wrappers(qcclab) == []
    assert qcclab.channel.batch_decode is before["channel.batch_decode"]
    assert qcclab.qcc.catastrophic_check is before["qcc.catastrophic_check"]
    assert qcclab.pauli.StabilizerWindow.__init__ is before["StabilizerWindow.__init__"]
    assert qcclab.qcc.QccCode.__dict__["stabilizer"].func is before["QccCode.stabilizer"]


def test_self_time_subtracts_child_spans():
    tr = tracing.Tracer()
    tr.spans = [("a", 0.0, 10.0, -1, ""), ("b", 1.0, 4.0, 0, ""),
                ("c", 2.0, 3.0, 1, ""), ("b", 5.0, 6.0, 0, "")]
    s = tr.summary()
    assert s["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert s["b"] == {"calls": 2, "s": 4.0, "self_s": 3.0}
    assert s["c"]["self_s"] == 1.0
