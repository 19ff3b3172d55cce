import itertools

import numpy as np
import pytest

from qcclab import statevec
from qcclab.pauli import PauliWindow
from qcclab.statevec import (
    StateVector,
    apply_elementary,
    decode_step_eq1,
    encode_eq1,
    fidelity,
    verify_logical,
)

from oracles import closed_form_state


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
        out = apply_elementary(s, "add-const", reg=0, a=1)
        assert abs(out.amp[1]) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            apply_elementary(s, "no-such-op")

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
            method = getattr(s, kind.replace("-", "_"))
            for out in (apply_elementary(s, kind, **params), method(**params)):
                assert np.allclose(out.amp.ravel(), want, atol=1e-12), (kind, params)
                assert out.amp.flags.c_contiguous, (kind, params)
                assert np.array_equal(s.amp, before), (kind, params)
            kinds.add(kind)
        assert kinds == set(statevec._KERNELS)

    @pytest.mark.parametrize(
        "kind, circuit",
        [
            ("add", lambda s: encode_eq1((1, 0, 1), 2, 3)),
            ("fourier", lambda s: encode_eq1((1, 0, 1), 2, 3)),
            ("pair-phase", lambda s: decode_step_eq1(s, 2, 3)),
            ("local-phase", lambda s: s.apply_pauli(PauliWindow.from_string("IZIZIIIIIIII"))),
            ("add-const", lambda s: s.apply_pauli(PauliWindow.from_string("IXIXIIIIIIII"))),
        ],
    )
    def test_norm_checked_after_every_gate_in_circuits(self, monkeypatch, kind, circuit):
        # each circuit runs the gate at least twice; the first call must fail
        state = encode_eq1((1, 0, 1), 2, 3)
        calls = []

        def leaky(amp, N, **params):
            calls.append(params)
            amp *= 1 + 1e-6

        monkeypatch.setitem(statevec._KERNELS, kind, leaky)
        with pytest.raises(ValueError, match="norm"):
            circuit(state)
        assert len(calls) == 1


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
