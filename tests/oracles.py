"""Independent oracles shared by the test modules.

Each oracle reaches its answer another way than the code it checks:
states by direct summation over dummy assignments, weights and distances
by exhaustive enumeration, Pauli operators and gates one register or one
gate at a time, decoding one trial or one argmin at a time. Some call
package code for a step they do not check; that code has tests of its own,
and a fault in it would show in another result:

  * the enumerations and `solve_localized_by_trimming` take particular
    solutions and kernel bases from `linalg.solve` and `linalg.kernel`, and
    `kernel_by_loop`, the reference for `linalg.kernel`, reads `linalg.rref`;
    `test_linalg` checks `solve` against numpy and the kernel against the loop;
  * `minimal_span_by_rref`, the reference for `linalg.minimal_span_basis`,
    gets its distinct starts and leading 1s from `linalg.rref`, not from
    `linalg.distinct_starts`, but shares the second pass, `linalg.shorten_ends`;
    `test_linalg` checks that the result has distinct starts and distinct ends,
    which characterise minimal span form;
  * `section_tables_by_sorting` keys every (state, branch) pair its own way,
    but enumerates words with `qviterbi._digits`, groups the keys with
    `convcode.group_candidates` (one stable argsort) and forms step keys with
    `convcode.step_keys`, as the trellis does; a fault there would break the
    decoders' agreement with `min_weight_for_syndrome`;
  * `trials_by_reference` decodes by `qva_decode`, which `test_qviterbi`
    checks against the exhaustive searches here, and reads a residual's
    logical action from `PauliWindow.sym_product`, as
    `first_stabilizer_violation` does;
  * `first_stabilizer_violation` pairs operators by `PauliWindow.sym_product`,
    which `test_pauli` checks on operators with known products;
  * `run_gates_one_by_one` moves amplitudes itself for the label-permuting
    gates, the only ones `statevec._run` fuses, and runs every other gate by
    its own kernel, which `test_statevec` checks against dense matrices.
"""

import itertools

import numpy as np

from qcclab import statevec


def eq1_encoder_gates(T):
    """The flagship encoder's gates as a hand-written rate-1/4 circuit lists
    them, block i (1-based) on registers 4(i-1) .. 4(i-1) + 3: the first
    pass on the info stream, a Fourier transform on both dummy registers of
    each block, and the second pass on the flattened dummy stream. Entries
    are ("add", src, dst), each adding 1 times src, and ("fourier", reg)."""

    def r(i, j):
        return 4 * (i - 1) + (j - 1)

    gates = []
    for i in range(1, T + 1):
        gates += [("add", r(i - d, 1), r(i, 3)) for d in (0, 1, 2) if i - d >= 1]
        if i >= 3:
            gates.append(("add", r(i - 2, 1), r(i, 1)))
    gates += [("fourier", r(i, j)) for i in range(1, T + 1) for j in (1, 3)]
    for i in range(1, T + 1):
        gates += [("add", r(i, 1), r(i, 2)), ("add", r(i, 3), r(i, 4)), ("add", r(i, 1), r(i, 4))]
        if i >= 2:
            gates += [("add", r(i - 1, 1), r(i, 2)), ("add", r(i - 1, 3), r(i, 2)),
                      ("add", r(i - 1, 3), r(i, 4)), ("add", r(i - 1, 1), r(i, 1)),
                      ("add", r(i - 1, 3), r(i, 3))]
    return gates


def closed_form_state(info, N, T):
    """Direct summation of the rate-1/4 closed form (zero history and tail)."""

    def k(i):
        return info[i - 1] if 1 <= i <= T else 0

    amp = np.zeros((N,) * (4 * T), dtype=np.complex128)
    w = np.exp(2j * np.pi / N)
    for dummies in itertools.product(range(N), repeat=2 * T):
        pv = {i + 1: dummies[2 * i] for i in range(T)}
        qv = {i + 1: dummies[2 * i + 1] for i in range(T)}

        def p(i):
            return pv.get(i, 0)

        def q(i):
            return qv.get(i, 0)

        phase = 0
        regs = []
        for i in range(1, T + 1):
            phase += (k(i) + k(i - 2)) * p(i) + (k(i) + k(i - 1) + k(i - 2)) * q(i)
            regs += [
                (p(i) + p(i - 1)) % N,
                (p(i) + p(i - 1) + q(i - 1)) % N,
                (q(i) + q(i - 1)) % N,
                (q(i) + q(i - 1) + p(i)) % N,
            ]
        amp[tuple(regs)] += w**phase
    amp /= np.linalg.norm(amp.ravel())
    return amp


def _coset_batches(stab, target, batch=1 << 14):
    """The full solution coset of a syndrome (particular solution + kernel),
    as batches of (x | z) rows; empty when the syndrome has no solution."""
    from qcclab import linalg

    L, p = stab.L, stab.p
    gx, gz = stab.gen_matrix[:, :L], stab.gen_matrix[:, L:]
    syn_map = np.concatenate([gz, (-gx) % p], axis=1)  # rows act on (x | z)
    particular = linalg.solve(syn_map, np.asarray(target, dtype=np.int64), p)
    if particular is None:
        return
    ker = linalg.kernel(syn_map, p)
    dim = len(ker)
    for start in range(0, p**dim, batch):
        idx = np.arange(start, min(start + batch, p**dim))
        digits = np.empty((len(idx), dim), dtype=np.int64)
        rem = idx.copy()
        for j in range(dim):
            digits[:, j] = rem % p
            rem //= p
        yield (digits @ ker + particular) % p if dim else particular[None, :] % p


def _weights(ops, L):
    return ((ops[:, :L] != 0) | (ops[:, L:] != 0)).sum(axis=1)


def min_weight_for_syndrome(stab, target, interior=None):
    """Exhaustive minimum Pauli weight consistent with a syndrome, by
    enumerating the full solution coset (particular solution + kernel)."""
    mins = [int(_weights(ops, stab.L).min()) for ops in _coset_batches(stab, target)]
    return min(mins) if mins else None


def min_weight_lex_correction(stab, target):
    """Exhaustive tie-break oracle: among the minimum-weight operators with
    the syndrome, the one whose register-interleaved tuple
    (x_0, z_0, x_1, z_1, ...) is lexicographically smallest; returns
    (weight, x, z), or None when the syndrome has no solution."""
    L = stab.L
    best = None
    for ops in _coset_batches(stab, target):
        wts = _weights(ops, L)
        keep = ops[wts == wts.min()]
        inter = np.empty_like(keep)
        inter[:, 0::2], inter[:, 1::2] = keep[:, :L], keep[:, L:]
        first = inter[np.lexsort(inter.T[::-1])[0]]
        cand = (int(wts.min()), tuple(int(v) for v in first))
        best = cand if best is None else min(best, cand)
    if best is None:
        return None
    weight, inter = best
    return weight, np.array(inter[0::2]), np.array(inter[1::2])


def _interior_maps(code, interior):
    """The default interior of `measure_distance` when none is given, and
    the syndrome and logical-action maps restricted to it, acting on
    (x | z) rows of the interior registers."""
    stab, L, p, step = code.stabilizer, code.L, code.N, code.regs_per_block
    if interior is None:
        right = -(-code.support_bound // step) * step  # support_bound rounded up to blocks
        interior = (step, L - right)
    lo, hi = interior
    if hi <= lo:
        raise ValueError("empty interior range")
    gen = stab.gen_matrix
    log = np.concatenate([stab.logical_z_matrix, stab.logical_x_matrix])
    # <row, (x | z)> is the symplectic product z_row . x - x_row . z
    syn_map = np.concatenate([gen[:, L + lo:L + hi], -gen[:, lo:hi] % p], axis=1)
    act_map = np.concatenate([log[:, L + lo:L + hi], -log[:, lo:hi] % p], axis=1)
    return (lo, hi), syn_map, act_map


def distance_by_enumeration(code, interior=None, batch=1 << 14):
    """Exhaustive (d, A_d, interior): every syndrome-free operator on the
    interior registers, as a combination of a kernel basis, is weighed when
    it acts on some logical. Raises the ValueErrors of `measure_distance`."""
    from qcclab import linalg

    (lo, hi), syn_map, act_map = _interior_maps(code, interior)
    p, w = code.N, hi - lo
    ker = linalg.kernel(syn_map, p)
    dim = len(ker)
    best, count = None, 0
    for start in range(0, p**dim, batch):
        idx = np.arange(start, min(start + batch, p**dim))
        digits = idx[:, None] // p ** np.arange(dim) % p
        ops = digits @ ker % p
        ops = ops[(ops @ act_map.T % p).any(axis=1)]
        if not len(ops):
            continue
        wts = _weights(ops, w)
        mn = int(wts.min())
        if best is None or mn < best:
            best, count = mn, 0
        if mn == best:
            count += int((wts == mn).sum())
    if best is None:
        raise ValueError("no logically acting operator in the interior range")
    return best, count, (lo, hi)


def acting_weights_up_to(code, max_weight, interior=None, batch=32):
    """{weight: count} of the syndrome-free, logically acting operators on
    the interior registers of weight at most max_weight, by listing every
    operator of those weights: each support set with every nonzero (x, z)
    on each of its registers."""
    (lo, hi), syn_map, act_map = _interior_maps(code, interior)
    p, w = code.N, hi - lo
    # what one register j carrying the nonzero value v = (x, z) contributes
    vals = np.array([(x, z) for x in range(p) for z in range(p)][1:])
    maps = np.concatenate([syn_map, act_map])
    unit = np.stack([vals[:, 0, None] * maps[:, j] + vals[:, 1, None] * maps[:, w + j]
                     for j in range(w)])  # (register, value, functional)
    n_syn = len(syn_map)
    found = {}
    for weight in range(1, max_weight + 1):
        supports = np.array(list(itertools.combinations(range(w), weight)))
        labels = np.array(list(itertools.product(range(len(vals)), repeat=weight)))
        for start in range(0, len(supports), batch):
            sup = supports[start:start + batch]
            total = unit[sup[:, None, :], labels[None, :, :]].sum(axis=2) % p
            hit = ~total[..., :n_syn].any(axis=-1) & total[..., n_syn:].any(axis=-1)
            found[weight] = found.get(weight, 0) + int(hit.sum())
    return {wt: n for wt, n in found.items() if n}


def solve_localized_by_trimming(M, b, p, center, halfwidth):
    """The reference for `linalg.solve_localized`: widen a column window
    around `center` until M v = b is consistent on it, then trim the left
    and then the right edge one column at a time while it stays consistent,
    never below one column, with a fresh solve per step."""
    from qcclab import linalg

    M = np.asarray(M, dtype=np.int64)
    cols = M.shape[1]
    hw = halfwidth
    while True:
        lo, hi = max(0, center - hw), min(cols, center + hw)
        if linalg.solve(M[:, lo:hi], b, p) is not None:
            break
        if lo == 0 and hi == cols:
            raise AssertionError("linear system unexpectedly inconsistent")
        hw *= 2
    while hi - lo > 1 and linalg.solve(M[:, lo + 1 : hi], b, p) is not None:
        lo += 1
    while hi - lo > 1 and linalg.solve(M[:, lo : hi - 1], b, p) is not None:
        hi -= 1
    out = np.zeros(cols, dtype=np.int64)
    out[lo:hi] = linalg.solve(M[:, lo:hi], b, p)
    return out


def kernel_by_loop(M, p):
    """The reference for `linalg.kernel`: the null space basis from the
    reduced form, one free column and one pivot at a time."""
    from qcclab import linalg

    M = np.asarray(M, dtype=np.int64).reshape(-1, np.shape(M)[-1])
    cols = M.shape[1]
    R, pivots = linalg.rref(M, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for r, c in enumerate(pivots):
            basis[i, c] = (-R[r, f]) % p
    return basis


def minimal_span_by_rref(vectors, p):
    """The reference for `linalg.minimal_span_basis`: the reduced row
    echelon form of the nonzero rows, whose starts are distinct and whose
    leading entries are 1, then `linalg.shorten_ends`. Dependent rows raise
    the same ValueError."""
    from qcclab import linalg

    M = np.asarray(vectors, dtype=np.int64).reshape(-1, np.shape(vectors)[-1]) % p
    M = M[M.any(axis=1)]
    R, pivots = linalg.rref(M, p)
    if len(pivots) < len(M):
        raise ValueError("dependent rows in minimal span reduction")
    return linalg.shorten_ends(R, p)


def first_stabilizer_violation(generators, logical_x, logical_z):
    """The message `StabilizerWindow` raises for these operators, or None,
    by checking every pair with `sym_product` in the order: each generator
    against the later generators and then every logical, the logical
    pairing, logical_x among themselves, logical_z among themselves."""
    logicals = list(logical_x) + list(logical_z)
    for i, a in enumerate(generators):
        for b in generators[i + 1 :]:
            if a.sym_product(b):
                return "stabilizer generators must mutually commute"
        for b in logicals:
            if a.sym_product(b):
                return "logicals must commute with the stabilizer"
    for i, lx in enumerate(logical_x):
        for j, lz in enumerate(logical_z):
            if (i == j) == (lx.sym_product(lz) == 0):
                return "logical pairs must anticommute exactly on matching indices"
    for ops, message in ((logical_x, "logical_x operators must mutually commute"),
                         (logical_z, "logical_z operators must mutually commute")):
        for i, a in enumerate(ops):
            for b in ops[i + 1 :]:
                if a.sym_product(b):
                    return message
    return None


def trials_by_reference(code, spec, trials, seed):
    """The `TrialReport` of `run_trials`, one trial at a time: trial i's
    error is `sample_error(spec, L, (seed, i))`, the scalar decoder corrects
    its syndrome, the residual is checked to have zero syndrome, and a
    payload pair counts as a symbol error when the residual has a nonzero
    symplectic product with its logical_x or logical_z; any of them makes
    a block error."""
    from qcclab import channel
    from qcclab.qviterbi import build_error_trellis, qva_decode

    stab = code.stabilizer
    trellis = build_error_trellis(code)
    payload = channel.payload_indices(code)
    block_errors = symbol_errors = 0
    for i in range(trials):
        error = channel.sample_error(spec, code.L, (seed, i))
        correction = qva_decode(trellis, stab.syndrome(error)).correction
        residual = error.compose(correction.inverse())
        assert not stab.syndrome(residual).any(), "residual has nonzero syndrome"
        hit = [i for i in payload if residual.sym_product(stab.logical_x[i])
               or residual.sym_product(stab.logical_z[i])]
        block_errors += bool(hit)
        symbol_errors += len(hit)
    return channel.TrialReport(
        trials=trials,
        timesteps=code.window_blocks,
        payload_qubits=len(payload),
        payload_indices=payload,
        logical_block_errors=block_errors,
        info_symbol_errors=symbol_errors,
        decoded_info_symbols=trials * len(payload),
        seed=seed,
        p_err=spec.p_err,
        model=spec.model.value,
    )


def section_tables_by_sorting(trellis, lo, hi):
    """The candidate tables of the error-trellis section [lo, hi) by keying
    every (previous state, branch) pair with its group (the values the
    closing generators reach, then the next state) and sorting the keys.
    Returns (src, label, step), each of shape (closing values, next states,
    F): previous state, branch label and step key of every candidate."""
    from qcclab.convcode import group_candidates, step_keys
    from qcclab.qviterbi import _digits

    p = trellis.p
    pats = _digits(2 * (hi - lo), p)
    bx = pats[:, 0::2]
    bz = pats[:, 1::2]
    wt = ((bx != 0) | (bz != 0)).sum(axis=1)

    first, last = trellis._first, trellis._last
    active = [g for g in range(trellis.G) if first[g] < hi and last[g] >= lo]
    open_prev = [g for g in active if first[g] < lo]
    open_next = [g for g in active if last[g] >= hi]
    closing = [g for g in active if last[g] < hi]
    S_prev = p ** len(open_prev)
    n_branch = len(pats)
    states = _digits(len(open_prev), p)

    n_groups = p ** len(active)
    dtype = np.uint16 if n_groups <= 1 << 16 else np.int64
    key = np.zeros((S_prev, n_branch), dtype=dtype)
    for g in closing + open_next:
        # syndrome convention: sym(error, gen) = x_e . z_g - z_e . x_g
        contrib = (bx @ trellis.gen_z[g, lo:hi] - bz @ trellis.gen_x[g, lo:hi]) % p
        prev = states[:, open_prev.index(g)] if g in open_prev else np.zeros(S_prev)
        key *= p
        key += (prev.astype(dtype)[:, None] + contrib.astype(dtype)) % p
    src, label = np.divmod(group_candidates(key.ravel(), n_groups), n_branch)
    shape = (p ** len(closing), p ** len(open_next), -1)
    step = step_keys(wt[label], label, S_prev, n_branch, trellis.L + 1)
    return src.reshape(shape), label.reshape(shape), step.reshape(shape)


def viterbi_by_argmin(sections, start, inf, settled=None):
    """The reference for `convcode.viterbi`, with its arguments and
    results: every candidate's key ((metric + cost) * S + rank) * B + label
    in full, the least key of each next state found by `argmin` and the
    winner's previous state and label read from the candidate tables at
    that position, and each boundary's ranks as the double argsort of the
    winners' (rank, label). Start states rank by index."""
    metric = np.asarray(start, dtype=np.int64)
    rank = np.broadcast_to(np.arange(metric.shape[1]), metric.shape)
    rows = np.arange(len(metric))

    def best_state():
        return np.argmin(metric * metric.shape[1] + rank, axis=1)

    def traceback(winners, state):
        out = np.empty((len(state), len(winners)), dtype=np.int64)
        for t in range(len(winners) - 1, -1, -1):
            prev, label = winners[t]
            out[:, t] = label[rows, state]
            state = prev[rows, state]
        return out

    winners = []
    labels = np.zeros((len(metric), 0), dtype=np.int64)
    for t, (src, step, n_labels) in enumerate(sections):
        n_states = metric.shape[1]
        span = n_states * n_labels
        base = (metric * n_states + rank) * n_labels
        key = base[rows[:, None, None], src] + step
        j = key.argmin(axis=2)[:, :, None]
        best = np.take_along_axis(key, j, axis=2)[:, :, 0]
        prev = np.take_along_axis(np.broadcast_to(src, key.shape), j, axis=2)[:, :, 0]
        winners.append((prev, best % n_labels))
        metric = np.minimum(best // span, inf)
        rank = (best % span).argsort(axis=1).argsort(axis=1)
        done = labels.shape[1]
        if settled is not None and settled[t] > done:
            pending = traceback(winners[done:], best_state())
            labels = np.hstack([labels, pending[:, : settled[t] - done]])
    end = best_state()
    labels = np.hstack([labels, traceback(winners[labels.shape[1]:], end)])
    return labels, metric[rows, end], end


def apply_pauli_by_registers(amp, op):
    """The reference for `StateVector.apply_pauli` on the amplitude array
    `amp` of shape (N,) * L: tau^phase X^x Z^z applied one register at a
    time, a phase w^(z_j v) on each slice where register j has label v,
    then a roll by x_j along each register's axis, then the global phase.
    Returns a new array."""
    N = op.p
    amp = np.array(amp, dtype=np.complex128)
    w = np.exp(2j * np.pi / N)
    for j in range(op.L):
        view = amp.reshape(N**j, N, -1)
        for v in range(1, N):
            e = (int(op.z[j]) * v) % N
            if e:
                view[:, v] *= w**e
    for j in range(op.L):
        if op.x[j]:
            view = amp.reshape(N**j, N, -1)
            view[...] = np.roll(view, int(op.x[j]), axis=1)
    amp *= np.exp(1j * np.pi / N) ** op.phase_exp
    return amp


def run_gates_one_by_one(amp, N, gates):
    """The reference for `statevec._run`: the gates applied one at a time to
    a copy of the amplitude array `amp`; returns the new array. An
    `add-const`, `add` or `mul` gate moves each amplitude to the image of
    its label by the gate's definition; any other gate runs its own kernel
    from `statevec._KERNELS`, as `_run` does."""
    amp = np.array(amp, dtype=np.complex128)
    labels = list(np.indices(amp.shape).reshape(amp.ndim, -1))
    for kind, params in gates:
        if kind not in ("add-const", "add", "mul"):
            statevec._KERNELS[kind](amp, N, **params)
            continue
        image = list(labels)
        if kind == "add":
            dst = params["dst"]
            image[dst] = (labels[dst] + params.get("scale", 1) * labels[params["src"]]) % N
        elif kind == "mul":
            image[params["reg"]] = params["a"] * labels[params["reg"]] % N
        else:
            for reg, a in zip(np.atleast_1d(params["reg"]), np.atleast_1d(params["a"])):
                image[reg] = (labels[reg] + a) % N
        moved = np.empty_like(amp)
        moved[tuple(image)] = amp.ravel()
        amp = moved
    return amp
