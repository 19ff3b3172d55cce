"""The benchmark's workloads: the library calls of `qcclab simulate` and
`qcclab verify-statevec`, in the order those commands make them.

Each workload has three steps. `setup` builds what the command builds
before its main loop; `run_pass` is one pass of that loop, and returns how
many items (trials or checks) it completed and the CPU time of the item
work; `check` verifies the outputs after the timed region and returns the
checks and a digest, a record of results that must not change between
commits for the same seed.

Left out, and why (the command line would hit each of these):
  * `measure_distance` at p=3, W=10 enumerates 3^20 kernel vectors and does
    not finish, so flagship-p3 runs no distance search.
  * The rate-1/3 parent (1+D, 1+D^2, 1+D+D^2) at W=4 takes about 25 s for
    its templates; its error trellis takes about 21 s and 5 GB, and
    `run_trials` then runs out of memory on a 7 GB machine.
  * `simulate` at its default `--window 6` finds an empty payload and fails
    with ZeroDivisionError, so the flagship workloads use W=10.
  * `verify-statevec` fails at T < 3 (`CodewordForm.amplitudes` builds a
    QccCode shorter than m + 1 blocks), so the state-vector sizes use T >= 3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from qcclab import channel, convcode, gfpoly, pauli, qcc, qviterbi, statevec

# the paper's rate-1/2 parent (1 + D^2, 1 + D + D^2)
FLAGSHIP_TAPS = [[[1, 0, 1], [1, 1, 1]]]
# a non-catastrophic rate-2/4 parent with 8 registers per block
WIDE_PARENT = {"p": 2, "k": 2, "n": 4, "G": [[[1, 1], [1], [0, 1], [1, 1]],
                                             [[0, 1], [1, 1], [1], [1]]]}

FIDELITY_TOL = 1e-9


@dataclass
class PassOutcome:
    items: int
    cpu_s: float  # CPU time of the item work alone
    result: object


class MonteCarlo:
    """`qcclab simulate` for one --p value: set-up, optional distance
    search, then one `run_trials` call with the default chunk."""

    def __init__(self, parent: dict, window: int, p_err: float, trials: int,
                 distance: bool, subsample: int, setup_reps: int = 9):
        self.parent = parent
        self.window = window
        self.p_err = p_err
        self.trials = trials
        self.distance = distance
        self.subsample = subsample
        self.setup_reps = setup_reps

    def planned_checks(self) -> int:
        # four per subsampled trial, plus agreement of the repeated passes
        return 4 * min(self.subsample, self.trials) + 1

    def setup(self):
        code = qcc.QccCode(convcode.ConvCode.from_json(self.parent), self.window)
        code.stabilizer
        code.templates
        channel.payload_indices(code)
        return code

    def run_pass(self, code, seed: int) -> PassOutcome:
        dist = None
        if self.distance:
            dist = channel.measure_distance(code)
            channel.union_bound(dist.count_at_d, dist.count_at_d, dist.d,
                                code.parent.k, self.p_err)
        spec = channel.ChannelSpec(self.p_err, channel.ChannelModel.DEPOLARIZING, code.N)
        t0 = time.process_time()
        report = channel.run_trials(code, spec, self.trials, seed)
        cpu = time.process_time() - t0
        return PassOutcome(self.trials, cpu, (report, dist))

    def check(self, code, seed: int, outcomes: list[PassOutcome]):
        """Re-decode a seeded subsample of the pass's trials with the batch
        and the scalar decoder; errors come from the same per-trial stream
        `run_trials` draws from."""
        checks = [("passes agree", all(o.result == outcomes[0].result for o in outcomes))]
        report, dist = outcomes[0].result
        stab = code.stabilizer
        spec = channel.ChannelSpec(self.p_err, channel.ChannelModel.DEPOLARIZING, code.N)
        errors = [channel.sample_error(spec, code.L, (seed, i)) for i in range(self.trials)]
        syns = [stab.syndrome(e) for e in errors]
        # prefer trials with a nonzero syndrome; they exercise the decoder
        order = np.random.default_rng(seed).permutation(self.trials)
        picked = sorted(sorted(order, key=lambda i: not syns[i].any())[: self.subsample])

        trellis = qviterbi.build_error_trellis(code)
        bx, bz, bcost = qviterbi.batch_decode(trellis, np.array([syns[i] for i in picked]))
        for j, i in enumerate(picked):
            corr = pauli.PauliWindow(bx[j], bz[j], code.N)
            scalar = qviterbi.qva_decode(trellis, syns[i])
            cost = int(bcost[j])
            checks += [
                (f"trial {i}: batch correction reproduces the syndrome",
                 np.array_equal(stab.syndrome(corr), syns[i])),
                (f"trial {i}: scalar correction reproduces the syndrome",
                 np.array_equal(stab.syndrome(scalar.correction), syns[i])),
                (f"trial {i}: batch cost equals scalar cost and correction weight",
                 cost == scalar.cost == corr.weight()),
                (f"trial {i}: decoded cost at most the error's weight",
                 cost <= errors[i].weight()),
            ]
        digest = {
            "trials": report.trials,
            "payload_indices": list(report.payload_indices),
            "logical_block_errors": report.logical_block_errors,
            "info_symbol_errors": report.info_symbol_errors,
            "d": dist.d if dist else None,
            "A_d": dist.count_at_d if dist else None,
            "subsample": [int(i) for i in picked],
            "subsample_costs": [int(c) for c in bcost],
            "subsample_cost_sum": int(bcost.sum()),
        }
        return checks, digest


class StateVectorSuite:
    """`qcclab verify-statevec`'s checks at sizes where they work: the
    circuit encoding against the closed form, one decoding step, every
    stabilizer generator fixing the codeword, and one logical spin flip."""

    SIZES = ((2, 5), (3, 3))  # (N, T): 2^20 and 3^12 amplitudes

    def __init__(self, setup_reps: int = 21):
        self.setup_reps = setup_reps

    def planned_checks(self) -> int:
        # per size: closed form, first symbol, tail, 3T generators, logical;
        # then agreement of the repeated passes
        return sum(4 + 3 * T for _, T in self.SIZES) + 1

    def setup(self):
        out = []
        for N, T in self.SIZES:
            parent = convcode.ConvCode(gfpoly.PolyMatrix.from_coeffs(FLAGSHIP_TAPS, N))
            form = qcc.codeword_form(parent)
            stab = qcc.QccCode(parent, T).stabilizer
            out.append((N, T, form, stab))
        return out

    def run_pass(self, ctx, seed: int) -> PassOutcome:
        t0 = time.process_time()
        results = []
        for N, T, form, stab in ctx:
            rng = np.random.default_rng([seed, N, T])
            info = [int(v) for v in rng.integers(0, N, size=T)]
            j = int(rng.integers(0, T))
            state = statevec.encode_eq1(info, N, T)
            direct = statevec.StateVector(N, 4 * T, form.amplitudes(info, T))
            block, rest = statevec.decode_step_eq1(state, N, T)
            k1 = int(np.argmax(block.register_distribution(0)))
            tail = statevec.encode_eq1(info[1:], N, T - 1)
            size = f"N={N} T={T}"
            rows = [
                (f"{size} circuit vs closed form", statevec.fidelity(state, direct)),
                (f"{size} decode extracts the first symbol", 1.0 if k1 == info[0] else 0.0),
                (f"{size} decode remainder re-encodes the tail", statevec.fidelity(rest, tail)),
            ]
            for g, gen in enumerate(stab.generators):
                rows.append((f"{size} generator {g} fixes the codeword",
                             statevec.fidelity(state.apply_pauli(gen), state)))
            delta = [1 if i == j else 0 for i in range(T)]
            ok = statevec.verify_logical(stab.logical_x[j], info, delta, N, T)
            rows.append((f"{size} spin flip {j} adds e_{j}", 1.0 if ok else 0.0))
            results.append((size, info, rows))
        n = sum(len(rows) for _, _, rows in results)
        return PassOutcome(n, time.process_time() - t0, results)

    def check(self, ctx, seed: int, outcomes: list[PassOutcome]):
        results = outcomes[0].result
        checks = [(name, f >= 1 - FIDELITY_TOL) for _, _, rows in results for name, f in rows]
        digest = _fidelity_digest(results)
        checks.append(("passes agree",
                       all(_fidelity_digest(o.result) == digest for o in outcomes)))
        return checks, digest


def _fidelity_digest(results) -> dict:
    return {size: {"info": info, "fidelities": [round(f, 9) for _, f in rows]}
            for size, info, rows in results}


WORKLOADS = {
    "flagship-p2": MonteCarlo({"p": 2, "k": 1, "n": 2, "G": FLAGSHIP_TAPS}, window=10,
                              p_err=0.03, trials=2000, distance=True, subsample=16),
    "flagship-p3": MonteCarlo({"p": 3, "k": 1, "n": 2, "G": FLAGSHIP_TAPS}, window=10,
                              p_err=0.1, trials=6, distance=False, subsample=3),
    "wide-r24": MonteCarlo(WIDE_PARENT, window=4, p_err=0.1, trials=8,
                           distance=False, subsample=3),
    "statevec": StateVectorSuite(),
}
