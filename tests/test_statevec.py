import itertools
from collections import Counter

import numpy as np
import pytest

from qcclab import ConvCode, PolyMatrix, QccCode, linalg, statevec
from qcclab.pauli import PauliWindow
from qcclab.qcc import CodewordForm
from qcclab.statevec import (
    StateVector,
    decode_gates,
    decode_step,
    decode_step_eq1,
    encode,
    encode_eq1,
    encode_gates,
    fidelity,
    flagship,
    verify_logical,
)

from oracles import (
    apply_pauli_by_registers,
    closed_form_state,
    eq1_encoder_gates,
    run_gates_one_by_one,
)


def _parent(p, taps):
    return ConvCode(PolyMatrix.from_coeffs(taps, p))


# a rate-2/4 parent with 8 registers per block, delay-0 pivot block
# [[1, 1], [0, 1]]
WIDE = [[[1, 1], [1], [0, 1], [1, 1]], [[0, 1], [1, 1], [1], [1]]]
# rate-2/4 parents with delay-0 pivot blocks [[0, 1], [1, 1]] over GF(2) and
# [[0, 2], [2, 2]] over GF(3): a zero pivot, and pivots other than 1
PIVOTED = {2: [[[0, 1], [1, 0], [0, 1], [1, 0]], [[1, 0], [1, 0], [0, 1], [1, 1]]],
           3: [[[0, 1], [2, 0], [0, 1], [1, 0]], [[2, 1], [2, 1], [2, 2], [1, 1]]]}
# (parent, T): windows whose codeword form and state are cheap. In each, the
# delay-0 pivots are the first k columns, so block 1's info sits on
# registers 0..k-1
SYNTH = {
    "flagship-p2": (lambda: flagship(2), 3),
    "flagship-p3": (lambda: flagship(3), 3),
    "rate-1/3-p2": (lambda: _parent(2, [[[1, 1], [1, 0, 1], [1, 1, 1]]]), 2),
    "1+D,1+D^2-p3": (lambda: _parent(3, [[[1, 1], [1, 0, 1]]]), 3),
    "rate-2/4-p2": (lambda: _parent(2, WIDE), 2),
    "rate-2/4-pivoted-p2": (lambda: _parent(2, PIVOTED[2]), 2),
    "rate-2/4-pivoted-p3": (lambda: _parent(3, PIVOTED[3]), 1),
}
# a rate-2/3 parent: k=2 divides neither n=3 nor the dummies of an odd window
ODD = {"p": 2, "k": 2, "n": 3, "G": [[[1, 1], [1, 0], [1, 0]], [[1], [0, 1], [1, 0]]]}
# the cases whose T-block window `QccCode` accepts: two with k=2, two over GF(3)
WINDOWED = ["flagship-p3", "1+D,1+D^2-p3", "rate-2/4-p2", "rate-2/4-pivoted-p2"]


def _infos(parent, T, count):
    """The zero word and count - 1 random info words of a T-block window."""
    rng = np.random.default_rng([parent.p, parent.k, parent.n, T])
    K = parent.k * T
    return [(0,) * K] + [tuple(int(v) for v in rng.integers(0, parent.p, K))
                         for _ in range(count - 1)]


@pytest.fixture
def kernel_calls(monkeypatch):
    """The kinds of the kernel calls that circuits make, in order."""
    ran = []
    apply = statevec._apply

    def spy(amp, N, op_kind, **params):
        ran.append(op_kind)
        apply(amp, N, op_kind, **params)

    monkeypatch.setattr(statevec, "_apply", spy)
    return ran


class TestElementaryOps:
    def test_fourier_on_zero_gives_uniform(self):
        s = StateVector.basis(2, 1, [0]).fourier(0)
        assert np.allclose(s.amp, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_controlled_add(self):
        s = StateVector.basis(2, 2, [1, 1])
        out = s.add(src=1, dst=0)  # first register += second
        assert abs(out.amp[0, 1]) == pytest.approx(1.0)

    def test_fourier_twice_negates(self):
        # matrix-squaring oracle: F^2 = negation permutation up to phase
        for N in (2, 3, 5):
            for x in range(N):
                s = StateVector.basis(N, 1, [x]).fourier(0).fourier(0)
                expect = StateVector.basis(N, 1, [(-x) % N])
                assert fidelity(s, expect) == pytest.approx(1.0)

    def test_mul_permutes(self):
        s = StateVector.basis(5, 1, [2]).mul(0, 3)
        assert abs(s.amp[1]) == pytest.approx(1.0)  # 3 * 2 = 6 = 1 mod 5
        with pytest.raises(ValueError):
            s.mul(0, 0)

    def test_local_and_pair_phase(self):
        s = StateVector.basis(3, 2, [1, 2]).local_phase(0, 1).pair_phase(0, 1)
        w = np.exp(2j * np.pi / 3)
        assert s.amp[1, 2] == pytest.approx(w ** (1 + 2))

    def test_norm_preserved_by_every_op(self):
        rng = np.random.default_rng(0)
        for N in (2, 3):
            raw = rng.normal(size=(N,) * 4) + 1j * rng.normal(size=(N,) * 4)
            raw /= np.linalg.norm(raw.ravel())
            s = StateVector(N, 4, raw)
            ops = [
                lambda t: t.add_const(1, 1),
                lambda t: t.add(0, 2),
                lambda t: t.add(3, 1, scale=N - 1),
                lambda t: t.mul(2, N - 1),
                lambda t: t.fourier(0),
                lambda t: t.fourier(3, inverse=True),
                lambda t: t.local_phase(1, 2),
                lambda t: t.pair_phase(0, 3),
            ]
            for op in ops:
                out = op(s)
                assert abs(out.norm() - 1.0) < 1e-12

    def test_dispatcher(self):
        s = StateVector.basis(2, 1, [0])
        out = s._gate("add-const", reg=0, a=1)
        assert abs(out.amp[1]) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="unknown elementary operation"):
            s._gate("no-such-op")
        with pytest.raises(ValueError, match="unknown elementary operation"):
            statevec._run(s.amp.copy(), 2, [("add-const", {"reg": 0, "a": 1}), ("no-such-op", {})])

    def test_register_bounds_checked(self):
        s = StateVector.basis(2, 2, [0, 0])
        with pytest.raises(IndexError):
            s.add_const(2, 1)

    def test_amplitude_cap(self):
        with pytest.raises(ValueError):
            StateVector.basis(2, 30, [0] * 30)

    def test_controlled_add_matrix_is_unitary(self):
        # explicit matrix of |x,y> -> |x, x+y> on N in {2, 3}
        for N in (2, 3):
            U = np.zeros((N * N, N * N))
            for x in range(N):
                for y in range(N):
                    U[x * N + (x + y) % N, x * N + y] = 1
            assert np.allclose(U @ U.T, np.eye(N * N))


def _dense_gate(N, L, kind, params):
    """N^L x N^L matrix of a gate, built from its docstring definition on
    basis states; basis index = C-order ravel of the register labels."""
    w = np.exp(2j * np.pi / N)
    U = np.zeros((N**L, N**L), dtype=np.complex128)
    for x in itertools.product(range(N), repeat=L):
        col = np.ravel_multi_index(x, (N,) * L)
        outs = []  # (labels, amplitude)
        y = list(x)
        if kind == "add-const":
            y[params["reg"]] = (x[params["reg"]] + params["a"]) % N
            outs.append((y, 1.0))
        elif kind == "add":
            y[params["dst"]] = (x[params["dst"]] + params["scale"] * x[params["src"]]) % N
            outs.append((y, 1.0))
        elif kind == "mul":
            y[params["reg"]] = (params["a"] * x[params["reg"]]) % N
            outs.append((y, 1.0))
        elif kind == "fourier":
            sign = -1 if params["inverse"] else 1
            for v in range(N):
                z = list(x)
                z[params["reg"]] = v
                outs.append((z, w ** (sign * x[params["reg"]] * v) / np.sqrt(N)))
        elif kind == "local-phase":
            outs.append((y, w ** (params["a"] * x[params["reg"]])))
        elif kind == "pair-phase":
            outs.append((y, w ** (params["c"] * x[params["reg1"]] * x[params["reg2"]])))
        elif kind == "linear":
            outs.append(((np.asarray(params["M"]) @ x + params.get("a", 0)) % N, 1.0))
        for labels, amp in outs:
            U[np.ravel_multi_index(labels, (N,) * L), col] += amp
    return U


def _gate_cases(N, L):
    """Every gate on every register, or every ordered register pair."""
    values = sorted({1, N - 1})
    for reg in range(L):
        for a in values:
            yield "add-const", {"reg": reg, "a": a}
            yield "mul", {"reg": reg, "a": a}
            yield "local-phase", {"reg": reg, "a": a}
        for inverse in (False, True):
            yield "fourier", {"reg": reg, "inverse": inverse}
    for r1, r2 in itertools.permutations(range(L), 2):
        for c in values:
            yield "add", {"src": r1, "dst": r2, "scale": c}
            yield "pair-phase", {"reg1": r1, "reg2": r2, "c": c}
    # a cyclic shift of the registers, a lower triangular matrix with N - 1
    # on its diagonal, and their product
    shift = np.roll(np.eye(L, dtype=np.int64), 1, axis=0)
    lower = np.tril(np.ones((L, L), dtype=np.int64))
    np.fill_diagonal(lower, N - 1)
    for M in (shift, lower, shift @ lower % N):
        yield "linear", {"M": M}
    # shifts by a: with M = I, with an M that keeps register 0 and registers
    # 1..2 apart, and with one that mixes them
    apart = np.eye(L, dtype=np.int64)
    apart[0, 0], apart[2, 1] = N - 1, 1
    for M in (np.eye(L, dtype=np.int64), apart, lower):
        for a in ([1, 0, 0], [0, N - 1, 1], [1, 1, N - 1]):
            yield "linear", {"M": M, "a": np.array(a)}


class TestKernelContract:
    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_every_gate_matches_its_dense_matrix(self, N):
        L = 3
        rng = np.random.default_rng(N)
        raw = rng.normal(size=(N,) * L) + 1j * rng.normal(size=(N,) * L)
        s = StateVector(N, L, raw / np.linalg.norm(raw.ravel()))
        before = s.amp.copy()
        kinds = set()
        for kind, params in _gate_cases(N, L):
            want = _dense_gate(N, L, kind, params) @ before.ravel()
            outs = [s._gate(kind, **params)]
            if not (kind == "linear" and "a" in params):  # the method takes no shift
                outs.append(getattr(s, kind.replace("-", "_"))(**params))
            for out in outs:
                assert np.allclose(out.amp.ravel(), want, atol=1e-12), (kind, params)
                assert out.amp.flags.c_contiguous, (kind, params)
                assert np.array_equal(s.amp, before), (kind, params)
            kinds.add(kind)
        assert kinds == set(statevec._KERNELS) | set(statevec._AFFINE)

    @pytest.mark.parametrize(
        "kind, circuit",
        [
            pytest.param("linear", lambda s: encode_eq1((1, 0, 1), 2, 3),
                         id="linear-p2"),
            ("fourier", lambda s: encode_eq1((1, 0, 1), 2, 3)),
            ("pair-phase",
             lambda s: decode_step(_parent(2, WIDE), encode(_parent(2, WIDE), (1, 0, 1, 1)))),
            pytest.param("linear", lambda s: encode(_parent(3, PIVOTED[3]), (1, 2)),
                         id="linear-p3"),
            ("local-phase", lambda s: s.apply_pauli(PauliWindow.from_string("IZIZIIIIIIII"))),
            pytest.param("linear",
                         lambda s: s.apply_pauli(PauliWindow.from_string("IXIXIIIIIIII")),
                         id="linear-pauli"),
        ],
    )
    def test_norm_checked_after_every_gate_in_circuits(self, monkeypatch, kind, circuit):
        # the first kernel call must fail, and the circuit stop there: the k=2
        # decode step runs three pair phases, each encoder its add and mul
        # gates as two label-permutation kernels, a Pauli operator each part once
        state = encode_eq1((1, 0, 1), 2, 3)
        calls = []

        def leaky(amp, N, **params):
            calls.append(params)
            amp *= 1 + 1e-6

        monkeypatch.setitem(statevec._KERNELS, kind, leaky)
        with pytest.raises(ValueError, match="norm"):
            circuit(state)
        assert len(calls) == 1

    def test_norm_checked_after_the_shift_of_an_operator_with_x_and_z_parts(self, monkeypatch):
        # the local phase runs first and passes its check; the leaky label
        # shift by x, nonzero on registers 1 and 3, must fail on its first call
        state = encode_eq1((1, 0, 1), 2, 3)
        calls = []

        def leaky(amp, N, **params):
            calls.append(params)
            amp *= 1 + 1e-6

        monkeypatch.setitem(statevec._KERNELS, "linear", leaky)
        with pytest.raises(ValueError, match="norm"):
            state.apply_pauli(PauliWindow.from_string("IYIXZIIIIIIZ"))
        assert len(calls) == 1
        assert np.array_equal(calls[0]["M"], np.eye(12))
        assert np.flatnonzero(calls[0]["a"]).tolist() == [1, 3]


def _labels(N, L, rng):
    """x or z vectors of L registers: weight 0, weight 1 on the first and on
    the last register, support in either half of the (N^h, N^(L-h)) view
    only, h = L // 2, and full weight."""
    h = L // 2
    supports = {"zero": [], "first": [0], "last": [L - 1], "rows": range(h),
                "columns": range(h, L), "full": range(L)}
    out = {}
    for name, regs in supports.items():
        v = np.zeros(L, dtype=np.int64)
        v[list(regs)] = rng.integers(1, N, len(regs))
        out[name] = v
    return out


class TestWholeLabelKernels:
    @pytest.mark.parametrize("N, L", [(2, 6), (2, 7), (3, 4), (3, 5), (5, 1), (5, 4)])
    def test_apply_pauli_matches_the_per_register_oracle(self, N, L):
        rng = np.random.default_rng([N, L])
        raw = rng.normal(size=(N,) * L) + 1j * rng.normal(size=(N,) * L)
        s = StateVector(N, L, raw / np.linalg.norm(raw.ravel()))
        labels = _labels(N, L, rng)
        for (xn, x), (zn, z) in itertools.product(labels.items(), repeat=2):
            for phase in range(2 * N):
                op = PauliWindow(x, z, N, phase)
                got = s.apply_pauli(op).amp
                want = apply_pauli_by_registers(s.amp, op)
                assert got.flags.c_contiguous, (xn, zn, phase)
                if z.any():
                    assert np.abs(got - want).max() <= 1e-12, (xn, zn, phase)
                else:
                    assert np.array_equal(got, want), (xn, phase)

    def test_pauli_operator_is_at_most_two_kernel_calls(self, kernel_calls):
        state = StateVector.basis(2, 6, [0, 1, 1, 0, 0, 1])
        for label, kinds in [("IIIIII", []), ("ZZIZIZ", ["local-phase"]),
                             ("XIXXII", ["linear"]),
                             ("XYZYXZ", ["local-phase", "linear"])]:
            kernel_calls.clear()
            state.apply_pauli(PauliWindow.from_string(label))
            assert kernel_calls == kinds, label


_STATE = StateVector.basis(2, 3, [0, 1, 0])
# each case: a call on _STATE, the error it raises and a pattern of its message
_INPUT_ERRORS = {
    "basis-too-few-labels": (lambda: StateVector.basis(2, 3, [0, 1]), ValueError, "3 labels"),
    "basis-too-many-labels": (lambda: StateVector.basis(2, 3, [0, 1, 0, 1]), ValueError,
                              "3 labels"),
    "basis-fractional-label": (lambda: StateVector.basis(2, 3, [0, 1.5, 0]), ValueError,
                               "integers in GF\\(2\\)"),
    "basis-label-outside-the-field": (lambda: StateVector.basis(3, 2, [0, 3]), ValueError,
                                      "integers in GF\\(3\\)"),
    "add-const-fractional-shift": (lambda: _STATE.add_const(0, 1.5), TypeError, "a must be"),
    "local-phase-fractional-multiplier": (lambda: _STATE.local_phase(0, 0.5), TypeError,
                                          "a must be"),
    "fractional-register": (lambda: _STATE.add_const(0.5, 1), TypeError, "register"),
    "add-fractional-scale": (lambda: _STATE.add(0, 1, scale=1.5), TypeError, "scale"),
    "mul-fractional-multiplier": (lambda: _STATE.mul(0, 1.5), TypeError, "multiplier"),
    "pair-phase-fractional-c": (lambda: _STATE.pair_phase(0, 1, c=0.5), TypeError, "c must"),
    "linear-fractional-matrix": (lambda: _STATE.linear(np.eye(3)), TypeError, "M must be integers"),
    "linear-singular-matrix": (lambda: _STATE.linear([[1, 1, 0], [0, 1, 1], [1, 0, 1]]),
                               ValueError, "singular mod 2"),
    "linear-wrong-shape": (lambda: _STATE.linear(np.eye(2, dtype=int)), ValueError, "3 x 3"),
    # a circuit's stretch of add and mul gates checks each gate as its kernel does
    "stretch-add-to-itself": (
        lambda: statevec._run(_STATE.amp.copy(), 2, [("add", {"src": 1, "dst": 1})]),
        ValueError, "must differ"),
    "stretch-add-fractional-scale": (
        lambda: statevec._run(_STATE.amp.copy(), 2, [("add", {"src": 0, "dst": 1, "scale": 0.5})]),
        TypeError, "scale"),
    "stretch-mul-by-zero": (
        lambda: statevec._run(_STATE.amp.copy(), 2, [("add", {"src": 0, "dst": 1}),
                                                     ("mul", {"reg": 2, "a": 2})]),
        ValueError, "nonzero mod N"),
    "stretch-register-out-of-range": (
        lambda: statevec._run(_STATE.amp.copy(), 2, [("mul", {"reg": 3, "a": 1})]),
        IndexError, "register 3 out of range"),
    "add-const-unequal-lengths": (lambda: _STATE.add_const([0, 1], [1]), ValueError,
                                  "equal-length"),
    "local-phase-sequence-and-integer": (lambda: _STATE.local_phase([0, 1], 1), ValueError,
                                         "equal-length"),
    "add-const-repeated-register": (lambda: _STATE.add_const([0, 0], [1, 1]), ValueError,
                                    "distinct"),
    "local-phase-repeated-register": (lambda: _STATE.local_phase([2, 2], [1, 1]), ValueError,
                                      "distinct"),
    "add-const-register-out-of-range": (lambda: _STATE.add_const([0, 3], [1, 1]), IndexError,
                                        "register 3 out of range"),
    "local-phase-negative-register": (lambda: _STATE.local_phase([-1], [1]), IndexError,
                                      "register -1 out of range"),
    "verify-logical-short-delta": (
        lambda: verify_logical(PauliWindow.identity(12, 2), (0, 1, 0), (1, 0), 2),
        ValueError, "expected_info_delta has 2 symbols, info has 3"),
    "verify-logical-long-delta": (
        lambda: verify_logical(PauliWindow.identity(12, 2), (0, 1, 0), (1, 0, 0, 0), 2),
        ValueError, "expected_info_delta has 4 symbols, info has 3"),
}


class TestInputErrors:
    @pytest.mark.parametrize("case", sorted(_INPUT_ERRORS))
    def test_bad_input_raises_a_typed_error(self, case):
        call, error, message = _INPUT_ERRORS[case]
        with pytest.raises(error, match=message):
            call()

    def test_sequence_form_accepts_equal_length_labels(self):
        s = _STATE.add_const([0, 2], [1, 1]).local_phase([1, 2], [1, 1])
        assert s.amp[1, 1, 1] == pytest.approx(1.0)
        assert np.array_equal(_STATE.add_const([], []).amp, _STATE.amp)


class TestEncode:
    @pytest.mark.parametrize(
        "T, N", [(1, 2), (1, 3), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3)]
    )
    def test_circuit_matches_closed_form(self, N, T):
        rng = np.random.default_rng(N * 10 + T)
        infos = [tuple(int(v) for v in rng.integers(0, N, T)) for _ in range(4)]
        infos.append((0,) * T)
        for info in infos:
            circuit = encode_eq1(info, N, T)
            direct = closed_form_state(info, N, T)
            f = abs(np.vdot(circuit.amp.ravel(), direct.ravel())) ** 2
            assert f >= 1 - 1e-9, (N, T, info)

    def test_codewords_are_orthonormal(self):
        states = [encode_eq1(info, 2, 3) for info in itertools.product(range(2), repeat=3)]
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                want = 1.0 if i == j else 0.0
                assert abs(np.vdot(a.amp.ravel(), b.amp.ravel())) == pytest.approx(want, abs=1e-10)

    def test_info_validation(self):
        with pytest.raises(ValueError):
            encode_eq1([2], 2, 1)
        with pytest.raises(ValueError):
            encode_eq1([0, 0], 2, 3)


class TestDecodeStep:
    @pytest.mark.parametrize("N", [2, 3])
    def test_extracts_first_symbol_deterministically(self, N):
        for k1 in range(N):
            info = (k1, 1 % N, 0)
            block, rest = decode_step_eq1(encode_eq1(info, N, 3), N, 3)
            dist = block.register_distribution(0)
            assert dist[k1] == pytest.approx(1.0, abs=1e-10)

    def test_zero_word_extracts_zero(self):
        block, _ = decode_step_eq1(encode_eq1((0, 0), 2, 2), 2, 2)
        assert block.register_distribution(0)[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("N", [2, 3])
    def test_remainder_is_tail_encoding(self, N):
        info = (1, 0, 1)
        _, rest = decode_step_eq1(encode_eq1(info, N, 3), N, 3)
        target = encode_eq1(info[1:], N, 2)
        assert fidelity(rest, target) >= 1 - 1e-9

    def test_chained_extraction(self):
        info = (1, 1, 0)
        state = encode_eq1(info, 2, 3)
        symbols = []
        for t in (3, 2):
            block, state = decode_step_eq1(state, 2, t)
            symbols.append(int(np.argmax(block.register_distribution(0))))
        block, _ = decode_step_eq1(state, 2, 1)
        symbols.append(int(np.argmax(block.register_distribution(0))))
        assert symbols == list(info)

    def test_malformed_input_rejected(self):
        rng = np.random.default_rng(4)
        raw = rng.normal(size=(2,) * 8) + 1j * rng.normal(size=(2,) * 8)
        raw /= np.linalg.norm(raw.ravel())
        with pytest.raises(ValueError):
            decode_step_eq1(StateVector(2, 8, raw), 2, 2)
        # X on register 1 of a codeword leaves block 1 in |k1, 1, 0, 0>, a
        # basis state that no codeword's block 1 decodes to
        state = encode_eq1((1, 0), 2, 2).apply_pauli(PauliWindow.from_string("IXIIIIII"))
        with pytest.raises(ValueError, match="malformed input"):
            decode_step_eq1(state, 2, 2)


class TestVerifyLogical:
    def test_identity_preserves(self):
        op = PauliWindow.identity(12, 2)
        assert verify_logical(op, (0, 1, 0), (0, 0, 0), 2)

    def test_weight_two_spin_flip(self):
        # Z on registers 4 and 12 adds one to the first symbol: the phases
        # it collects equal the first symbol's coupling pattern exactly
        op = PauliWindow.from_string("IIIZIIIIIIIZ")
        for info in itertools.product(range(2), repeat=3):
            delta = (1, 0, 0)
            assert verify_logical(op, info, delta, 2), info

    def test_phase_flip_via_superposition(self):
        # X-pattern acting as the first phase shift: -1 on k1 = 1 codewords
        op = PauliWindow.from_string("XXIXXXIIIIII")
        plus = encode_eq1((0, 0, 0), 2, 3)
        minus = encode_eq1((1, 0, 0), 2, 3)
        sup = StateVector(2, 12, (plus.amp + minus.amp) / np.sqrt(2))
        out = sup.apply_pauli(op)
        expect = StateVector(2, 12, (plus.amp - minus.amp) / np.sqrt(2))
        assert fidelity(out, expect) >= 1 - 1e-9
        assert fidelity(out, sup) <= 1e-9


def _gate_action(gates, v, p):
    """The register vector after a list of `add` and `mul` gates, by their
    definitions on basis labels."""
    v = list(v)
    for kind, params in gates:
        if kind == "add":
            v[params["dst"]] = (v[params["dst"]] + params["scale"] * v[params["src"]]) % p
        else:
            assert kind == "mul"
            v[params["reg"]] = params["a"] * v[params["reg"]] % p
    return v


class TestSynthesizedCircuits:
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_in_place_gates_map_v_to_M_v(self, p):
        rng = np.random.default_rng(p)
        kinds = set()
        for size in (1, 2, 5, 8):
            for _ in range(10):
                M = rng.integers(0, p, (size, size))
                if len(linalg.rref(M, p)[1]) < size:
                    continue
                gates = statevec._in_place(M, p)
                kinds |= {kind for kind, _ in gates}
                for v in rng.integers(0, p, (4, size)):
                    assert _gate_action(gates, v, p) == (M @ v % p).tolist()
        assert kinds == ({"add"} if p == 2 else {"add", "mul"})

    def test_unit_lower_triangular_costs_one_add_per_entry(self):
        M = np.eye(6, dtype=np.int64)
        M[[2, 3, 5, 5], [0, 1, 1, 4]] = [1, 2, 1, 2]
        gates = statevec._in_place(M, 3)
        assert [kind for kind, _ in gates] == ["add"] * 4

    @pytest.mark.parametrize("name", sorted(SYNTH))
    def test_encode_matches_codeword_form(self, name):
        make, T = SYNTH[name]
        parent = make()
        form = CodewordForm(parent)
        for info in _infos(parent, T, 4):
            state = encode(parent, info)
            direct = form.amplitudes(info, T)
            assert abs(np.vdot(state.amp.ravel(), direct.ravel())) ** 2 >= 1 - 1e-9, info

    @pytest.mark.parametrize("name", WINDOWED)
    def test_generators_fix_codewords_and_spin_flips_add_unit_vectors(self, name):
        make, T = SYNTH[name]
        parent = make()
        stab = QccCode(parent, T).stabilizer
        p = parent.p
        for info in _infos(parent, T, 2):
            state = encode(parent, info)
            for g, gen in enumerate(stab.generators):
                assert fidelity(state.apply_pauli(gen), state) >= 1 - 1e-9, (info, g)
            for i, lx in enumerate(stab.logical_x):
                moved = list(info)
                moved[i] = (moved[i] + 1) % p
                target = encode(parent, moved)
                assert fidelity(state.apply_pauli(lx), target) >= 1 - 1e-9, (info, i)

    @pytest.mark.parametrize("name", sorted(SYNTH))
    def test_decode_step_splits_off_block_one(self, name):
        make, T = SYNTH[name]
        parent = make()
        k, R = parent.k, parent.n**2 // parent.k
        for info in _infos(parent, T, 3):
            block, rest = decode_step(parent, encode(parent, info))
            want = StateVector.basis(parent.p, R, info[:k] + (0,) * (R - k))
            assert fidelity(block, want) == pytest.approx(1.0), info
            assert rest.L == R * (T - 1)
            if T > 1:
                assert fidelity(rest, encode(parent, info[k:])) >= 1 - 1e-9, info

    def test_decode_step_needs_k_to_divide_n_and_whole_blocks(self):
        odd = ConvCode.from_json(ODD)
        with pytest.raises(ValueError, match="k \\| n \\(k=2, n=3\\)"):
            decode_step(odd, encode(odd, (1, 0, 1, 1)))
        with pytest.raises(ValueError, match="whole blocks of 4 registers over GF\\(2\\)"):
            decode_step(flagship(2), StateVector.basis(2, 6, [0] * 6))
        with pytest.raises(ValueError, match="whole blocks"):
            decode_step(flagship(3), encode(flagship(2), (1, 0)))

    def test_a_window_needs_a_multiple_of_k_dummies(self):
        odd = ConvCode.from_json(ODD)
        message = "1 blocks give 3 dummies, not a multiple of k=2"
        with pytest.raises(ValueError, match=message):
            encode(odd, (1, 0))
        with pytest.raises(ValueError, match=message):
            CodewordForm(odd).amplitudes((1, 0), 1)

    @pytest.mark.parametrize("info", [[2, 0, 0], [1.7, 0, 0]], ids=["outside-GF2", "non-integer"])
    def test_codeword_form_rejects_bad_info(self, info):
        with pytest.raises(ValueError, match="info symbols must be integers in GF\\(2\\)"):
            CodewordForm(flagship(2)).amplitudes(info)

    def test_encode_rejects_bad_info(self):
        with pytest.raises(ValueError, match="multiple of k=2"):
            encode(_parent(2, WIDE), (1, 0, 1))
        with pytest.raises(ValueError, match="GF\\(3\\)"):
            encode(flagship(3), (0, 3))
        # (D, D + D^2) has zero delay-0 taps, so no register can carry its info
        with pytest.raises(ValueError, match="delay-0 taps are not of full rank"):
            encode(_parent(2, [[[0, 1], [0, 1, 1]]]), (1, 0))

    def test_flagship_runs_the_hand_written_gates(self, kernel_calls):
        gates, _, L = encode_gates(flagship(2), 5)
        assert all(params.get("scale", 1) == 1 for _, params in gates)
        got = [(kind, *(v for key, v in params.items() if key != "scale"))
               for kind, params in gates]
        assert Counter(got) == Counter(eq1_encoder_gates(5))
        assert Counter(gate[0] for gate in got) == {"add": 50, "fourier": 10}
        gates, _ = decode_gates(flagship(2), L)
        assert Counter(kind for kind, _ in gates) == {"add": 9, "fourier": 2, "pair-phase": 1}

        # each stretch of add gates runs as one label-permutation kernel
        state = encode_eq1((1, 0, 1, 1, 0), 2, 5)
        assert kernel_calls == ["linear"] + ["fourier"] * 10 + ["linear"]
        kernel_calls.clear()
        decode_step_eq1(state, 2, 5)
        assert kernel_calls == ["linear", "fourier", "fourier", "linear", "pair-phase"]


def _invertible(N, size, rng, zero_pivot=False):
    """A random size x size matrix invertible mod N; with `zero_pivot`, and
    size > 1, one whose first diagonal entry is 0."""
    while True:
        M = rng.integers(0, N, (size, size))
        if (not zero_pivot or size == 1 or not M[0, 0]) and len(linalg.rref(M, N)[1]) == size:
            return M


def _on(L, regs, sub):
    """The L x L identity with `sub` on the registers `regs`."""
    M = np.eye(L, dtype=np.int64)
    M[np.ix_(regs, regs)] = sub
    return M


class TestLabelPermutationKernel:
    @pytest.mark.parametrize("N", [2, 3, 5])
    def test_stretches_match_the_gates_one_by_one(self, N):
        rng = np.random.default_rng([N, 7])
        kinds = set()
        for L in (1, 2, 5, 6, 7):
            raw = rng.normal(size=(N,) * L) + 1j * rng.normal(size=(N,) * L)
            amp = raw / np.linalg.norm(raw.ravel())
            h = L // 2
            maps = [_invertible(N, L, rng, zero_pivot=True) for _ in range(3)]
            maps += [_on(L, range(h), _invertible(N, h, rng)),
                     _on(L, range(h, L), _invertible(N, L - h, rng))]
            lists = [[], statevec._in_place(maps[0], N) + [("fourier", {"reg": L - 1})]
                     + statevec._in_place(maps[1], N)]
            lists += [statevec._in_place(M, N) for M in maps[2:]]
            # shifts before and after a stretch: its affine part moves with it
            lists.append([("add-const", {"reg": list(range(L)), "a": list(range(1, L + 1))})]
                         + statevec._in_place(maps[2], N) + [("add-const", {"reg": 0, "a": 1})])
            for gates in lists:
                kinds |= {(kind, params.get("scale") == N - 1) for kind, params in gates}
                got = statevec._run(amp.copy(), N, gates).amp
                assert np.array_equal(got, run_gates_one_by_one(amp, N, gates)), (L, gates)
        # zero pivots add a lower row with scale N - 1; pivots other than 1 need a mul
        assert ("add", True) in kinds
        assert ("mul", False) in kinds or N == 2
        assert ("add-const", False) in kinds

    def test_a_large_field_sums_each_digit_mod_N(self):
        # 257^2 entries exceed a digit-sum table, so each digit is summed directly
        N, rng = 257, np.random.default_rng(257)
        raw = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        amp = raw / np.linalg.norm(raw.ravel())
        gates = statevec._in_place([[0, 3], [5, 1]], N)
        got = statevec._run(amp.copy(), N, gates).amp
        assert np.array_equal(got, run_gates_one_by_one(amp, N, gates))

    @pytest.mark.parametrize("N", [2, 3])
    def test_zero_registers_stay(self, N):
        s = StateVector(N, 0, np.array(1j))
        assert s.linear(np.zeros((0, 0), dtype=int)).amp == 1j

    @pytest.mark.parametrize("p, taps, T", [
        (2, [[[1, 0, 1], [1, 1, 1]]], 3),
        (3, [[[1, 0, 1], [1, 1, 1]]], 3),
        (5, [[[1, 0, 1], [1, 1, 1]]], 2),
        (3, PIVOTED[3], 1),
        (2, WIDE, 2),
    ], ids=["flagship-p2", "flagship-p3", "flagship-p5", "rate-2/4-pivoted-p3", "rate-2/4-p2"])
    def test_circuits_equal_their_gates_one_by_one(self, kernel_calls, p, taps, T):
        parent = _parent(p, taps)
        R = parent.n**2 // parent.k
        info = _infos(parent, T, 2)[1]
        gates, regs, L = encode_gates(parent, T)
        labels = np.zeros(L, dtype=np.int64)
        labels[regs] = info
        state = encode(parent, info)
        # both passes, their mul gates too, run as one label permutation each
        dummies = sum(kind == "fourier" for kind, _ in gates)
        assert kernel_calls == ["linear"] + ["fourier"] * dummies + ["linear"]
        want = run_gates_one_by_one(StateVector.basis(p, L, labels).amp, p, gates)
        assert np.array_equal(state.amp, want)
        gates, _ = decode_gates(parent, L)
        rows = run_gates_one_by_one(state.amp, p, gates).reshape(p**R, -1)
        weights = np.array([np.vdot(row, row).real for row in rows])
        top = int(np.argmax(weights))
        _, rest = decode_step(parent, state)
        assert np.array_equal(rest.amp.ravel(), rows[top] / np.sqrt(weights[top]))
