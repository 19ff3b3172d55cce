import itertools

import numpy as np
import pytest

from qcclab import ConvCode, PolyMatrix, build_trellis, encode_stream, viterbi_decode
from qcclab.convcode import StateCapError, group_candidates, step_keys, viterbi

from oracles import viterbi_by_argmin


def brute_force_decode(code, received):
    """Exhaustive minimum-distance search; the oracle for Viterbi tests."""
    n, k, m, p = code.n, code.k, code.m, code.p
    T = len(received) // n - m
    best = None
    for info in itertools.product(range(p), repeat=k * T):
        word = encode_stream(code, list(info), terminate=True)
        dist = sum(a != b for a, b in zip(word, received))
        cand = (dist, info)
        if best is None or cand < best:
            best = cand
    return best


class TestEncode:
    def test_flagship_impulse(self, rate_half_parent):
        out = encode_stream(rate_half_parent, [1, 0, 0, 0], terminate=False)
        assert out == [1, 1, 0, 1, 1, 1, 0, 0]

    def test_all_zero(self, rate_half_parent):
        assert encode_stream(rate_half_parent, [0] * 5, terminate=False) == [0] * 10

    def test_short_memory_code(self, catastrophic_parent):
        out = encode_stream(catastrophic_parent, [1, 1, 1], terminate=False)
        assert out == [1, 1, 0, 1, 0, 0]

    def test_termination_appends_tail(self, rate_half_parent):
        out = encode_stream(rate_half_parent, [1], terminate=True)
        assert len(out) == 2 * (1 + rate_half_parent.m)
        # tail flushes the memory: re-encoding the zero-padded info agrees
        assert out == encode_stream(rate_half_parent, [1, 0, 0], terminate=False)

    def test_linearity(self, rate_half_parent):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.integers(0, 2, 6)
            b = rng.integers(0, 2, 6)
            ea = encode_stream(rate_half_parent, a.tolist(), terminate=False)
            eb = encode_stream(rate_half_parent, b.tolist(), terminate=False)
            eab = encode_stream(rate_half_parent, ((a + b) % 2).tolist(), terminate=False)
            assert [(x + y) % 2 for x, y in zip(ea, eb)] == eab

    def test_symbol_out_of_range(self, rate_half_parent):
        with pytest.raises(ValueError):
            encode_stream(rate_half_parent, [2], terminate=False)

    @pytest.mark.parametrize("info", [[1.5, 0, 1], np.array([1.5, 0, 1])], ids=["list", "array"])
    def test_non_integer_symbols_are_rejected(self, rate_half_parent, info):
        with pytest.raises(ValueError, match="info symbols must be integers in GF\\(2\\)"):
            encode_stream(rate_half_parent, info)

    def test_nested_info_is_rejected(self, rate_half_parent):
        with pytest.raises(ValueError, match="one flat sequence"):
            encode_stream(rate_half_parent, [[1], [0]])

    def test_ternary_encoding(self):
        code = ConvCode(PolyMatrix.from_coeffs([[[1], [2, 1]]], 3))
        out = encode_stream(code, [1, 2], terminate=False)
        assert out == [1, 2, 2, (2 * 2 + 1) % 3]  # second block: (k2, 2*k2 + k1)


class TestTrellis:
    def test_flagship_shape(self, rate_half_parent):
        tr = build_trellis(rate_half_parent)
        assert tr.n_states == 4
        assert tr.n_branches == 2

    def test_memoryless_single_state(self, repetition_parent):
        assert build_trellis(repetition_parent).n_states == 1

    def test_state_cap(self, rate_half_parent):
        with pytest.raises(StateCapError):
            build_trellis(rate_half_parent, state_cap=2)

    @pytest.mark.parametrize("cap", [0, -5, 2.5, True])
    def test_explicit_state_cap_must_be_a_positive_integer(self, rate_half_parent, cap):
        with pytest.raises(StateCapError, match=f"must be a positive integer, got {cap!r}"):
            build_trellis(rate_half_parent, state_cap=cap)

    def test_paths_reproduce_encoder(self, rate_half_parent):
        tr = build_trellis(rate_half_parent)
        rng = np.random.default_rng(2)
        for _ in range(20):
            info = rng.integers(0, 2, 7).tolist()
            word = encode_stream(rate_half_parent, info, terminate=False)
            s = 0
            out = []
            for u in info:
                out.extend(int(v) for v in tr.output[s, u])
                s = int(tr.next_state[s, u])
            assert out == word


class TestViterbi:
    def test_clean_word_decodes_to_itself(self, rate_half_parent):
        tr = build_trellis(rate_half_parent)
        info = [1, 0, 1, 1, 0]
        word = encode_stream(rate_half_parent, info, terminate=True)
        path = viterbi_decode(tr, word)
        assert list(path.info) == info
        assert path.metric == 0
        assert path.final_state == 0

    def test_single_flip_corrected(self, rate_half_parent):
        tr = build_trellis(rate_half_parent)
        info = [1, 0, 0, 0]
        word = encode_stream(rate_half_parent, info, terminate=True)
        for i in range(len(word)):
            rx = list(word)
            rx[i] ^= 1
            path = viterbi_decode(tr, rx)
            assert list(path.info) == info, f"flip at {i}"
            assert path.metric == 1

    def test_double_errors_within_free_distance(self, rate_half_parent):
        # free distance 5 as a terminated block code: any 2 flips correct
        tr = build_trellis(rate_half_parent)
        info = [1, 0, 1, 1, 0, 1]
        word = encode_stream(rate_half_parent, info, terminate=True)
        for i, j in itertools.combinations(range(len(word)), 2):
            rx = list(word)
            rx[i] ^= 1
            rx[j] ^= 1
            path = viterbi_decode(tr, rx)
            assert list(path.info) == info, f"flips at {i},{j}"

    def test_matches_exhaustive_search(self, rate_half_parent):
        # with k = 2 the lexicographic order of the input blocks differs
        # from the order of their branch indices
        rate_two_thirds = ConvCode(PolyMatrix.from_coeffs(
            [[[1, 1], [0, 1], [1]], [[0, 1], [1], [1, 1]]], 2))
        rng = np.random.default_rng(3)
        for code, trials, max_T in ((rate_half_parent, 120, 6), (rate_two_thirds, 40, 4)):
            tr = build_trellis(code)
            for _ in range(trials):
                T = int(rng.integers(2, max_T + 1))
                rx = rng.integers(0, 2, code.n * (T + code.m)).tolist()
                path = viterbi_decode(tr, rx)
                dist, info = brute_force_decode(code, rx)
                assert path.metric == dist
                assert tuple(path.info) == info  # tie-break matches lexicographic

    def test_ternary_roundtrip(self):
        code = ConvCode(PolyMatrix.from_coeffs([[[1], [1, 1]]], 3))
        tr = build_trellis(code)
        info = [2, 0, 1, 2]
        word = encode_stream(code, info, terminate=True)
        path = viterbi_decode(tr, word)
        assert list(path.info) == info

    def test_length_must_be_block_multiple(self, rate_half_parent):
        tr = build_trellis(rate_half_parent)
        with pytest.raises(ValueError):
            viterbi_decode(tr, [0, 1, 0])

    def test_nested_received_word_is_rejected(self, rate_half_parent):
        # two rows of three symbols: a whole number of n=2 blocks by length
        tr = build_trellis(rate_half_parent)
        with pytest.raises(ValueError, match="received symbols must be one flat sequence"):
            viterbi_decode(tr, [[1, 1, 0], [1, 1, 1]])
        # rows of unequal length have no array form at all
        with pytest.raises(ValueError, match="received symbols must be integers in GF\\(2\\)"):
            viterbi_decode(tr, [[1], [1, 1]])

    def test_streaming_matches_block_decode_on_isolated_errors(self, rate_half_parent):
        tr = build_trellis(rate_half_parent)
        info = [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0]
        word = encode_stream(rate_half_parent, info, terminate=False)
        word[2] ^= 1
        word[23] ^= 1
        exact = viterbi_decode(tr, word, terminated=False)
        stream = viterbi_decode(tr, word, traceback=15, terminated=False)
        assert stream.info == exact.info


def random_sections(rng, p, n_rows, n_start, case):
    """Random grouped sections after `n_start` states: each has a fan-in F
    from 1 to 16 (the first section's is case % 16 + 1), B labels with
    S * B a multiple of F, and a random map of its (state, branch) pairs
    onto next states that gives every next state F of them. Costs are 0 or
    1, all 0 in every fourth case so that every comparison is a metric
    tie, and a tenth of the candidates are unreachable. n_rows=1 gives
    broadcast sections, one row for every decoded word, as
    `viterbi_decode` passes them."""
    S = n_start
    ties = case % 4 == 0
    # above a start metric of at most 2 plus at most 4 sections of cost 1
    inf = 7
    sections = []
    for t in range(int(rng.integers(1, 5))):
        F = case % 16 + 1 if t == 0 else int(rng.integers(1, 17))
        # at most p-fold growth, and none past 60 states
        grow = 1 if S > 60 else int(rng.integers(1, p + 1))
        B = F // int(np.gcd(S, F)) * grow
        V = S * B // F
        src, branch = np.divmod(group_candidates(rng.permutation(S * B) % V, V), B)
        label = rng.permutation(B)[branch]
        cost = np.zeros((n_rows, V, F), dtype=np.int64)
        if not ties:
            cost = rng.integers(0, 2, (n_rows, V, F))
        cost[rng.random(cost.shape) < 0.1] = inf
        src = np.broadcast_to(src, (n_rows, V, F)).astype(np.min_scalar_type(S - 1))
        sections.append((src, step_keys(cost, label, S, B, inf), B))
        S = V
    return sections, inf


@pytest.mark.parametrize("broadcast", [False, True], ids=["batched", "broadcast"])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_viterbi_equals_the_argmin_kernel(p, broadcast):
    rng = np.random.default_rng(p)
    for case in range(48):
        n_start = 1 if case % 3 == 0 else int(rng.integers(2, 7))
        n_rows = int(rng.integers(1, 5)) if broadcast else int(rng.integers(2, 6))
        sections, inf = random_sections(rng, p, 1 if broadcast else n_rows, n_start, case)
        start = rng.integers(0, 3, (n_rows, n_start))
        start[rng.random(start.shape) < 0.2] = inf
        settled = None
        if case % 2:
            # a non-decreasing count of committed labels, at most t + 1
            n = len(sections)
            settled = np.minimum(np.maximum.accumulate(rng.integers(0, n + 1, n)), np.arange(1, n + 1))
        got = viterbi(sections, start, inf, settled)
        want = viterbi_by_argmin(sections, start, inf, settled)
        for a, b in zip(got, want):
            assert np.array_equal(a, b), (case, a, b)
