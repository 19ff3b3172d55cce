import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qcclab.channel import TrialReport
from qcclab.cli import EXIT_CLOSED, EXIT_DOMAIN, EXIT_INPUT, EXIT_OK, main

FLAGSHIP = {"p": 2, "k": 1, "n": 2, "G": [[[1, 0, 1], [1, 1, 1]]]}
# (1 + D, 1 + D^2) over GF(2): both taps share the factor 1 + D
CATASTROPHIC = {"p": 2, "k": 1, "n": 2, "G": [[[1, 1], [1, 0, 1]]]}
RANK_DEFICIENT = {"p": 2, "k": 2, "n": 2, "G": [[[1], [1]], [[1], [1]]]}
# a non-catastrophic rate-2/3 parent: k=2 does not divide n^2=9
RATE_TWO_THIRDS = {"p": 2, "k": 2, "n": 3, "G": [[[1, 1], [1, 0], [1, 0]], [[1], [0, 1], [1, 0]]]}
# (D, D + D^2) over GF(2): non-catastrophic, but with delay D
DELAYED = {"p": 2, "k": 1, "n": 2, "G": [[[0, 1], [0, 1, 1]]]}


@pytest.fixture
def flagship_file(tmp_path):
    path = tmp_path / "flagship.json"
    path.write_text(json.dumps(FLAGSHIP))
    return str(path)


def test_verify_statevec_passes(capsys):
    assert main(["verify-statevec"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert all(line.startswith("PASS ") for line in lines), lines


def test_simulate_default_window_names_smallest_window(flagship_file, capsys):
    # the default --window 6 leaves no payload qubit clear of the edges
    assert main(["simulate", "--code", flagship_file, "--p", "0.03"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "smallest window with a payload is 8" in captured.err


def test_simulate_smallest_window_runs(flagship_file, capsys):
    argv = ["simulate", "--code", flagship_file, "--p", "0.03", "--window", "8",
            "--trials", "50"]
    assert main(argv) == EXIT_OK
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    assert row[:2] == ["0.03", "50"]


@pytest.mark.parametrize("extra", [
    ["--received", "[0, 0, 0, 0, 0, 0]", "--state-cap", "2"],
    ["--received", "[0, 0, 0]"],
    ["--received", "[0, 0, 0, 0, 0, 0]", "--traceback", "0"],
    ["--received", "[5, 7, 0, 0, 0, 0]"],
    ["--received", "[-1, 0, 0, 0, 0, 0]"],
    ["--received", "[1.5, 0, 0, 0, 0, 0]"],
    ["--received", "[0, 0, 0, 0, 0, 0]", "--state-cap", "-5"],
    ["--received", "[0, 0, 0, 0, 0, 0]", "--state-cap", "0"],
    ["--received", "[[1, 1, 0], [1, 1, 1]]"],
], ids=["state-cap", "length-not-multiple-of-n", "traceback-0", "symbol-above-p",
        "negative-symbol", "fractional-symbol", "negative-state-cap", "zero-state-cap",
        "nested-received-word"])
def test_viterbi_input_errors_exit_2_with_one_line(flagship_file, capsys, extra):
    assert main(["viterbi", "--code", flagship_file, *extra]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_simulate_reports_bounds_where_kernel_search_gave_up(flagship_file, capsys):
    # W=12 has a 30-dimensional syndrome-free kernel on the interior
    argv = ["simulate", "--code", flagship_file, "--p", "0.03", "--window", "12",
            "--trials", "20"]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert "note:" not in captured.err
    pe_bound, pb_bound = (float(v) for v in captured.out.splitlines()[-1].split(",")[-2:])
    assert math.isfinite(pe_bound) and math.isfinite(pb_bound)


@pytest.mark.parametrize("argv, descriptor, code", [
    (["check-catastrophic"], FLAGSHIP, EXIT_OK),
    (["check-catastrophic"], CATASTROPHIC, EXIT_OK),
    (["check-catastrophic"], RANK_DEFICIENT, EXIT_DOMAIN),
    (["build-qcc"], FLAGSHIP, EXIT_OK),
    (["build-qcc"], CATASTROPHIC, EXIT_DOMAIN),
    (["build-qcc"], None, EXIT_INPUT),
    (["build-qcc", "--window", "2"], FLAGSHIP, EXIT_INPUT),
    (["print-stabilizers"], FLAGSHIP, EXIT_OK),
    (["print-stabilizers"], CATASTROPHIC, EXIT_DOMAIN),
    (["print-stabilizers"], None, EXIT_INPUT),
    (["print-stabilizers", "--window", "2"], FLAGSHIP, EXIT_INPUT),
    (["build-qcc"], RANK_DEFICIENT, EXIT_DOMAIN),
    (["print-stabilizers"], RANK_DEFICIENT, EXIT_DOMAIN),
    (["check-catastrophic"], RATE_TWO_THIRDS, EXIT_OK),
    (["build-qcc", "--window", "4"], RATE_TWO_THIRDS, EXIT_INPUT),
    (["print-stabilizers", "--window", "4"], RATE_TWO_THIRDS, EXIT_INPUT),
    (["build-qcc"], DELAYED, EXIT_INPUT),
    (["print-stabilizers"], DELAYED, EXIT_INPUT),
], ids=["check-flagship", "check-catastrophic", "check-rank-deficient",
        "build-flagship", "build-catastrophic", "build-missing-file", "build-window-2",
        "print-flagship", "print-catastrophic", "print-missing-file", "print-window-2",
        "build-rank-deficient", "print-rank-deficient", "check-rate-2/3",
        "build-rate-2/3", "print-rate-2/3", "build-delayed", "print-delayed"])
def test_exit_codes(tmp_path, capsys, argv, descriptor, code):
    path = tmp_path / "code.json"
    if descriptor is not None:
        path.write_text(json.dumps(descriptor))
    assert main([argv[0], "--code", str(path), *argv[1:]]) == code
    captured = capsys.readouterr()
    if code == EXIT_OK:
        assert captured.err == ""
        assert captured.out
    else:
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        if descriptor is RATE_TWO_THIRDS:
            assert "does not divide" in captured.err
        if descriptor is DELAYED:
            assert "delay D^1" in captured.err


def test_check_catastrophic_verdicts(tmp_path, capsys):
    verdicts = []
    for descriptor in (FLAGSHIP, CATASTROPHIC):
        path = tmp_path / "code.json"
        path.write_text(json.dumps(descriptor))
        assert main(["check-catastrophic", "--code", str(path)]) == EXIT_OK
        verdicts.append(json.loads(capsys.readouterr().out)["verdict"])
    assert verdicts == ["non-catastrophic", "catastrophic"]


def test_simulate_output_independent_of_jobs(flagship_file, capsys):
    argv = ["simulate", "--code", flagship_file, "--p", "0.03", "0.1", "--window", "8",
            "--trials", "300", "--seed", "5"]
    outputs = []
    for jobs in ("1", "2", "3"):
        assert main([*argv, "--jobs", jobs]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("extra", [
    ["--p", "1.5"],
    ["--p", "nan"],
    ["--p", "0.03", "-0.1"],
    ["--p", "0.03", "--trials", "-3"],
    ["--p", "0.03", "--jobs", "0"],
    ["--p", "0.03", "--jobs", "-2"],
    ["--p", "0.03", "--seed", "-1"],
    ["--p", "0.03", "--seed", str(2**63)],
    ["--p", "0.03", "--seed", str(2**64)],
], ids=["p-above-1", "p-nan", "second-p-negative", "negative-trials", "jobs-0",
        "negative-jobs", "negative-seed", "seed-2^63", "seed-2^64"])
def test_simulate_input_errors_exit_2_with_one_line(flagship_file, capsys, extra):
    assert main(["simulate", "--code", flagship_file, "--window", "8", *extra]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_print_stabilizers_operators_are_json_over_gf3(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({**FLAGSHIP, "p": 3}))
    assert main(["build-qcc", "--code", str(path), "--window", "4"]) == EXIT_OK
    built = json.loads(capsys.readouterr().out)
    assert main(["print-stabilizers", "--code", str(path), "--window", "4"]) == EXIT_OK
    fields = {}
    for line in capsys.readouterr().out.splitlines():
        if not line.startswith("#"):
            fields.setdefault(line.split()[0], []).append(json.loads(line.split()[-1]))
    assert fields["template"] == [t["pattern"] for t in built["templates"]]
    assert fields["generator"] == built["generators"]
    assert fields["logical-x"] == built["logical_x"]
    assert fields["logical-z"] == built["logical_z"]
    assert fields["generator"] and fields["template"] and fields["logical-x"]


def test_reader_closing_stdout_exits_1_without_a_traceback(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({**FLAGSHIP, "p": 3}))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # about 135 kB of output, more than a pipe holds, so the command is
    # still writing when its reader goes
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcclab.cli", "print-stabilizers", "--code", str(path),
         "--window", "40"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"# qcclab")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_CLOSED
    assert err == b""


# `simulate --window 10 --trials 400 --seed 7 --p 0.01 0.03` on the flagship
# parent, as printed before the serial runs shared one error trellis; the
# lower bounds of the zero counts are exactly 0
SIMULATE_TWO_RATES = """\
# qcclab 0.1.0
p,trials,Pe_hat,Pe_lo,Pe_hi,Pb_hat,Pb_lo,Pb_hi,Pe_bound,Pb_bound
0.01,400,0,0,0.000959443,0,0,0.003191,0.088,0.088
0.03,400,0.00225,0.0011842,0.00427092,0.01,0.00572958,0.0173976,0.457261,0.457261
"""


def test_simulate_builds_one_trellis_for_all_rates(flagship_file, capsys, monkeypatch):
    import qcclab.channel
    import qcclab.cli

    builds = []

    def counting(build):
        def wrapper(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)
        return wrapper

    for module in (qcclab.cli, qcclab.channel):
        monkeypatch.setattr(module, "build_error_trellis", counting(module.build_error_trellis))
    argv = ["simulate", "--code", flagship_file, "--p", "0.01", "0.03", "--window", "10",
            "--trials", "400", "--seed", "7"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == SIMULATE_TWO_RATES
    assert len(builds) == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_simulate_trellis_over_the_state_cap_exits_2(flagship_file, capsys, monkeypatch, jobs):
    monkeypatch.setenv("QCC_STATE_CAP", "16")
    argv = ["simulate", "--code", flagship_file, "--p", "0.03", "--window", "8",
            "--trials", "20", "--jobs", jobs]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "exceed cap 16" in captured.err
    assert captured.err.count("\n") == 1


CAP_COMMANDS = {
    "simulate": ["simulate", "--code", "{code}", "--p", "0.03", "--window", "8",
                 "--trials", "20"],
    "verify-statevec": ["verify-statevec"],
    "viterbi": ["viterbi", "--code", "{code}", "--received", "[0, 0, 0, 0, 0, 0]"],
}


@pytest.mark.parametrize("value", ["abc", "-5", "0", "1.5"])
@pytest.mark.parametrize("command", sorted(CAP_COMMANDS))
def test_malformed_state_cap_exits_2_with_one_line(flagship_file, capsys, monkeypatch,
                                                   command, value):
    monkeypatch.setenv("QCC_STATE_CAP", value)
    argv = [a.format(code=flagship_file) for a in CAP_COMMANDS[command]]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: QCC_STATE_CAP must be a positive integer, got {value!r}\n"


def test_verify_statevec_over_the_state_cap_exits_2(capsys, monkeypatch):
    # 2^4 amplitudes fit, so the T=1 check runs before the T=2 state is refused
    monkeypatch.setenv("QCC_STATE_CAP", "16")
    assert main(["verify-statevec"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["PASS encode N=2 T=1 circuit-vs-closed-form fidelity"]
    assert captured.err == "error: state of 2^8 amplitudes exceeds the cap\n"


def test_merged_reports_add_counts():
    part = dict(timesteps=8, payload_qubits=1, payload_indices=(1,), seed=5,
                p_err=0.03, model="depolarizing")
    a = TrialReport(trials=3, logical_block_errors=1, info_symbol_errors=1,
                    decoded_info_symbols=3, **part)
    b = TrialReport(trials=2, logical_block_errors=0, info_symbol_errors=0,
                    decoded_info_symbols=2, **part)
    assert a.merge(b) == TrialReport(trials=5, logical_block_errors=1, info_symbol_errors=1,
                                     decoded_info_symbols=5, **part)
    with pytest.raises(ValueError):
        a.merge(TrialReport(trials=2, logical_block_errors=0, info_symbol_errors=0,
                            decoded_info_symbols=2, **{**part, "seed": 6}))


def test_rates_with_nothing_decoded_are_nan():
    rep = TrialReport(trials=0, timesteps=6, payload_qubits=0, payload_indices=(),
                      logical_block_errors=0, info_symbol_errors=0,
                      decoded_info_symbols=0, seed=0, p_err=0.03, model="depolarizing")
    assert math.isnan(rep.p_e_hat)
    assert math.isnan(rep.p_b_hat)
    assert rep.p_b_interval == (0.0, 1.0)
