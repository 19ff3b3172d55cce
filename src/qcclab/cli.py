"""Command-line entry point.

Subcommands: check-catastrophic, build-qcc, print-stabilizers, simulate,
verify-statevec, viterbi. Machine-readable output goes to stdout,
diagnostics to stderr. Exit codes: 0 success, 1 reader closed stdout
(nothing more is printed, on stdout or stderr), 2 input error, 3 domain
rejection (catastrophic parent and similar). Input errors, out-of-range
`simulate --p`, `--trials`, `--seed` and `--jobs` among them, print one
`error:` line; so does a QCC_STATE_CAP that is not a positive integer, or
a trellis or state vector over that cap.

`simulate` prints one row per channel error rate. `Pe_hat` is the number
of trials whose decoded residual acts on any payload logical pair, divided
by trials times the window's W blocks. A trial counts once however many
payload blocks fail, and every block of the window counts in the divisor,
so `Pe_hat` is not a per-payload-block rate, and it moves with W. `Pb_hat`
is the number of payload logical pairs acted on, divided by trials times
the payload size: a rate per payload symbol. `Pe_lo`, `Pe_hi`, `Pb_lo` and
`Pb_hi` are their 95% Wilson intervals. `Pe_bound` and `Pb_bound` are union
bounds from the window's distance d and its count A_d of minimum-weight
logical operators, which grows with W. `Pb_bound` uses A_d in place of B_d,
the count weighted by the information symbols they flip, which is not
computed yet.
"""

from __future__ import annotations

import argparse
import functools
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .channel import (
    ChannelModel,
    ChannelSpec,
    EmptyPayloadError,
    TrialReport,
    check_trial_keys,
    measure_distance,
    require_payload,
    run_trials,
    union_bound,
)
from .convcode import ConvCode, StateCapError, build_trellis, viterbi_decode
from .gfpoly import RankDeficientError, catastrophic_check
from .pauli import PauliWindow
from .qcc import CatastrophicParentError, QccCode, codeword_form, op_to_text
from .qviterbi import build_error_trellis
from .statevec import decode_step_eq1, encode_eq1, fidelity, flagship, verify_logical

EXIT_OK = 0
EXIT_CLOSED = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3


class InputError(Exception):
    pass


def _load_code(path: str) -> ConvCode:
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path) as fh:
                doc = json.load(fh)
        return ConvCode.from_json(doc)
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"cannot read code descriptor {path!r}: {exc}") from exc


def cmd_check_catastrophic(args) -> int:
    code = _load_code(args.code)
    try:
        verdict = catastrophic_check(code.G)
    except RankDeficientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    doc = {
        "version": __version__,
        "verdict": verdict.verdict.value,
        "witness": verdict.witness.to_json(),
    }
    if not verdict.is_catastrophic:
        doc["delay"] = verdict.delay
        if verdict.delay > 0:
            print(
                f"note: minor gcd is D^{verdict.delay}; inversion needs "
                f"{verdict.delay} blocks of look-ahead",
                file=sys.stderr,
            )
    print(json.dumps(doc))
    return EXIT_OK


def _build(args) -> QccCode:
    code = _load_code(args.code)
    try:
        return QccCode(code, args.window)
    except (CatastrophicParentError, RankDeficientError):
        raise
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_build_qcc(args) -> int:
    qcc = _build(args)
    doc = {"version": __version__}
    doc.update(qcc.to_json())
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def _op_field(op: PauliWindow) -> str:
    """An operator as one field: its p=2 string, else compact JSON."""
    text = op_to_text(op)
    return text if isinstance(text, str) else json.dumps(text, separators=(",", ":"))


def cmd_print_stabilizers(args) -> int:
    qcc = _build(args)
    print(f"# qcclab {__version__}")
    print(f"# registers={qcc.L} step={qcc.regs_per_block} logical={qcc.k_info}")
    for t in qcc.templates:
        pat = _op_field(t.pattern)
        print(f"template {t.kind} offset={t.offset} step={t.step} {pat}")
    stab = qcc.stabilizer
    for g in stab.generators:
        print(f"generator {_op_field(g)}")
    for i, (lx, lz) in enumerate(zip(stab.logical_x, stab.logical_z)):
        print(f"logical-x {i} {_op_field(lx)}")
        print(f"logical-z {i} {_op_field(lz)}")
    return EXIT_OK


# built once in each `simulate --jobs` worker: (code, trellis, model, seed)
_worker_run = None


def _init_worker(code_doc, window, model, seed) -> None:
    global _worker_run
    code = QccCode(ConvCode.from_json(code_doc), window)
    _worker_run = (code, build_error_trellis(code), ChannelModel(model), seed)


def _simulate_range(p_err: float, n: int, offset: int) -> TrialReport:
    code, trellis, model, seed = _worker_run
    return run_trials(code, ChannelSpec(p_err, model, code.N), n, seed, offset, trellis)


def _reports(qcc: QccCode, trellis, specs, args):
    """Each channel's report; under --jobs, one range per worker of one pool."""
    if args.jobs == 1 or args.trials == 0:
        for spec in specs:
            yield run_trials(qcc, spec, args.trials, args.seed, trellis=trellis)
        return
    per = -(-args.trials // args.jobs)
    offsets = range(0, args.trials, per)
    counts = [min(per, args.trials - off) for off in offsets]
    init = (qcc.parent.to_json(), qcc.window_blocks, args.model, args.seed)
    with ProcessPoolExecutor(args.jobs, multiprocessing.get_context("spawn"),
                             initializer=_init_worker, initargs=init) as pool:
        for spec in specs:
            ranges = pool.map(_simulate_range, [spec.p_err] * len(counts), counts, offsets)
            yield functools.reduce(TrialReport.merge, ranges)


def cmd_simulate(args) -> int:
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    try:
        check_trial_keys(args.seed, 0, args.trials)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    qcc = _build(args)
    model = ChannelModel(args.model)
    try:
        specs = [ChannelSpec(p_err, model, qcc.N) for p_err in args.p]
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    try:
        require_payload(qcc)
    except EmptyPayloadError as exc:
        raise InputError(str(exc)) from exc
    # the serial runs share one error trellis across the --p values; it is
    # built under --jobs too, so that a trellis over the state cap is
    # reported before any worker starts
    trellis = build_error_trellis(qcc)

    try:
        dist = measure_distance(qcc)
        d = dist.d
        b_d = dist.count_at_d
    except ValueError as exc:
        print(f"note: distance search skipped ({exc})", file=sys.stderr)
        d, b_d = None, None

    print(f"# qcclab {__version__}")
    print("p,trials,Pe_hat,Pe_lo,Pe_hi,Pb_hat,Pb_lo,Pb_hi,Pe_bound,Pb_bound")
    for rep in _reports(qcc, trellis, specs, args):
        pe_lo, pe_hi = rep.p_e_interval
        pb_lo, pb_hi = rep.p_b_interval
        if d is not None:
            pe_bound, pb_bound = union_bound(b_d, b_d, d, qcc.parent.k, rep.p_err)
            bound_cols = f"{pe_bound:.6g},{pb_bound:.6g}"
        else:
            bound_cols = "nan,nan"
        print(
            f"{rep.p_err:.6g},{rep.trials},{rep.p_e_hat:.6g},{pe_lo:.6g},{pe_hi:.6g},"
            f"{rep.p_b_hat:.6g},{pb_lo:.6g},{pb_hi:.6g},{bound_cols}"
        )
    return EXIT_OK


def cmd_verify_statevec(args) -> int:
    """Reproduction suite for the flagship's rate-1/4 circuits."""
    failures = 0

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += not ok

    parents = {N: flagship(N) for N in (2, 3)}
    for N, parent in parents.items():
        form = codeword_form(parent)
        for T in (1, 2, 3):
            circuit = encode_eq1([1] + [0] * (T - 1), N, T)
            direct = form.amplitudes([1] + [0] * (T - 1), T)
            f = abs(np.vdot(circuit.amp.ravel(), direct.ravel())) ** 2
            check(f"encode N={N} T={T} circuit-vs-closed-form fidelity", f >= 1 - 1e-9)
    for N in parents:
        info = [1, 0, 1]
        block, rest = decode_step_eq1(encode_eq1(info, N, 3), N, 3)
        k1 = int(np.argmax(block.register_distribution(0)))
        check(f"decode N={N} extracts k1 deterministically", k1 == info[0])
        target = encode_eq1(info[1:], N, 2)
        check(f"decode N={N} remainder re-encodes the tail", fidelity(rest, target) >= 1 - 1e-9)
    stab = QccCode(parents[2], 4).stabilizer
    state = encode_eq1([0, 0, 0, 0], 2, 4)
    check("stabilizer generators fix the all-zero codeword",
          all(fidelity(state.apply_pauli(g), state) >= 1 - 1e-9 for g in stab.generators))
    check("first spin flip maps codeword 0000 to 1000",
          verify_logical(stab.logical_x[0], [0, 0, 0, 0], [1, 0, 0, 0], 2, 4))
    return EXIT_OK if failures == 0 else 1


def cmd_viterbi(args) -> int:
    code = _load_code(args.code)
    try:
        received = json.loads(args.received) if args.received.startswith("[") else None
        if received is None:
            with open(args.received) as fh:
                received = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read received symbols: {exc}") from exc
    try:
        trellis = build_trellis(code, state_cap=args.state_cap)
        path = viterbi_decode(
            trellis, received, traceback=args.traceback, terminated=not args.unterminated
        )
    except (ValueError, TypeError) as exc:  # StateCapError is a ValueError
        raise InputError(str(exc)) from exc
    print(json.dumps({
        "version": __version__,
        "info": list(path.info),
        "metric": path.metric,
    }))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qcclab", description=__doc__)
    ap.add_argument("--version", action="version", version=f"qcclab {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_code(p):
        p.add_argument("--code", required=True, help="code descriptor JSON file, or - for stdin")

    p = sub.add_parser("check-catastrophic", help="Massey-Sain invertibility test")
    add_code(p)
    p.set_defaults(fn=cmd_check_catastrophic)

    p = sub.add_parser("build-qcc", help="build the windowed quantum code")
    add_code(p)
    p.add_argument("--window", type=int, default=6, help="window length in parent blocks")
    p.set_defaults(fn=cmd_build_qcc)

    p = sub.add_parser("print-stabilizers", help="emit templates, generators in "
                       "minimal span order, and logical pairs")
    add_code(p)
    p.add_argument("--window", type=int, default=6)
    p.set_defaults(fn=cmd_print_stabilizers)

    p = sub.add_parser(
        "simulate", help="Monte Carlo decoded-error rates",
        description="Monte Carlo decoded-error rates, with union bounds from the "
        "window distance. Pe_hat counts trials with any payload logical error, divided "
        "by trials x window blocks: not a per-payload-block rate, so it moves with the "
        "window. Pb_hat is per payload symbol. Pe_bound and Pb_bound use the window's "
        "count A_d of minimum-weight logicals; Pb_bound uses A_d in place of B_d.")
    add_code(p)
    p.add_argument("--window", type=int, default=6)
    p.add_argument("--p", type=float, nargs="+", required=True, help="channel error rates")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the trial streams, an integer in [0, 2^63)")
    p.add_argument("--model", choices=[m.value for m in ChannelModel],
                   default=ChannelModel.DEPOLARIZING.value)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify-statevec", help="state-vector reproduction suite")
    p.set_defaults(fn=cmd_verify_statevec)

    p = sub.add_parser("viterbi", help="classical hard-decision decode")
    add_code(p)
    p.add_argument("--received", required=True,
                   help="JSON file of received symbols, or an inline JSON array")
    p.add_argument("--traceback", type=int, default=None)
    p.add_argument("--unterminated", action="store_true")
    p.add_argument("--state-cap", type=int, default=None)
    p.set_defaults(fn=cmd_viterbi)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, StateCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CatastrophicParentError, RankDeficientError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # the reader closed stdout; with stdout on devnull the interpreter's
        # final flush of what is still buffered stays silent too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED


if __name__ == "__main__":
    sys.exit(main())
