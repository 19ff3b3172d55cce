"""Span tracing for the benchmark's traced run.

Wrappers are installed from outside the package: every public module-level
function of the `qcclab` layers, the constructors and methods the per-layer
metrics name, and the two cached properties of `QccCode`. A function is
replaced under every name any `qcclab` module binds it to (`channel` imports
`batch_decode` by name, `qcc` imports `catastrophic_check`, and so on), so
calls are seen whichever name the caller looks up. Spans and counts stay in
memory until the run ends; `uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("gfpoly", "linalg", "convcode", "pauli", "qcc", "qviterbi", "channel", "statevec")

# elementary register operations of the state-vector engine
GATES = ("add_const", "add", "mul", "fourier", "local_phase", "pair_phase")

WRAPPED = "__perfbench_span__"


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _trellis_shape(trellis) -> dict:
    """Computed sizes of an ErrorTrellis from its public attributes."""
    br, L, p = trellis.block_regs, trellis.L, trellis.p
    branches = [p ** (2 * (min(L, lo + br) - lo)) for lo in range(0, L, br)]
    states = [trellis.n_states(t) for t in range(len(branches))]
    return {"states": states, "branches": branches}


def _meta_build_error_trellis(args, kwargs, trellis):
    shape = _trellis_shape(trellis)
    # next-state and closing-key tables: one int64 each per (state, branch)
    table = sum(s * b for s, b in zip(shape["states"], shape["branches"])) * 16
    return {
        "states_max": trellis.p ** trellis.max_open,
        "branches_per_block": trellis.p ** (2 * trellis.block_regs),
        "table_bytes": table,
    }


def _meta_batch_decode(args, kwargs, result):
    trellis = _arg(args, kwargs, 0, "trellis")
    m = len(_arg(args, kwargs, 1, "syndromes"))
    shape = _trellis_shape(trellis)
    acs = sum(m * s * b for s, b in zip(shape["states"], shape["branches"]))
    return {"syndromes": m, "acs_ops": acs}


def _meta_run_trials(args, kwargs, result):
    return {"trials": _arg(args, kwargs, 2, "trials")}


def _meta_kernel(args, kwargs, result):
    return {"vectors": _arg(args, kwargs, 1, "p") ** len(result)}


def _meta_gate(args, kwargs, result):
    state = args[0]
    # one complex128 state read and one written per gate
    return {"bytes": state.N ** state.L * 16 * 2}


META = {
    "qviterbi.build_error_trellis": _meta_build_error_trellis,
    "qviterbi.batch_decode": _meta_batch_decode,
    "channel.run_trials": _meta_run_trials,
    "linalg.kernel": _meta_kernel,
    **{f"statevec.StateVector.{g}": _meta_gate for g in GATES},
}


class Tracer:
    """Installs span wrappers into the qcclab modules and records spans.

    A span is (name, start, end, parent index, phase); `phase` groups the
    spans of one step of the workload (set-up, pass, checks).
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.meta: dict[int, dict] = {}
        self.phase = ""
        self._stack: list[int] = []
        self._undo: list = []

    # installation ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack, meta_of = self.spans, self._stack, META.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.phase)
            if meta_of is not None:
                self.meta[idx] = meta_of(args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED, name)
        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = {m: sys.modules[f"{package.__name__}.{m}"] for m in LAYERS}
        binders = [package, *(
            mod for key, mod in sys.modules.items()
            if key.startswith(package.__name__ + ".")
        )]
        # keyed by id: the originals stay alive, so ids cannot be reused
        replace: dict[int, object] = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                replace[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for mod in binders:
            for attr, val in list(vars(mod).items()):
                if id(val) in replace:
                    self._set(mod, attr, replace[id(val)])

        stab_cls = modules["pauli"].StabilizerWindow
        self._set(stab_cls, "__init__", self._wrap("pauli.StabilizerWindow", stab_cls.__init__))
        sv = modules["statevec"].StateVector
        self._set(sv, "__init__", self._wrap("statevec.StateVector", sv.__init__))
        for meth in (*GATES, "apply_pauli"):
            self._set(sv, meth, self._wrap(f"statevec.StateVector.{meth}", sv.__dict__[meth]))
        form = modules["qcc"].CodewordForm
        self._set(form, "amplitudes", self._wrap("qcc.CodewordForm.amplitudes", form.amplitudes))
        qcc_cls = modules["qcc"].QccCode
        for prop in ("stabilizer", "templates"):
            cp = qcc_cls.__dict__[prop]
            self._undo.append((cp, "func", cp.func))
            cp.func = self._wrap(f"qcc.QccCode.{prop}", cp.func)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # reporting -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds, where
        self time is a span's duration less that of its direct children."""
        child_time = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, t0, t1, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time[idx]
        return out

    def children(self, idx: int, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[3] == idx and s[0] == name]

    def spans_of(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def dump(self, path) -> None:
        """Write every span and its computed counters as JSON."""
        doc = {
            "fields": ["name", "start", "end", "parent", "phase"],
            "computed": list(COMPUTED),
            "spans": self.spans,
            "meta": {str(k): v for k, v in self.meta.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def installed_wrappers(package) -> list[str]:
    """Names under which a span wrapper is currently reachable."""
    found = []
    owners = [package, *(m for k, m in sys.modules.items() if k.startswith(package.__name__ + "."))]
    for mod in list(owners):
        for val in vars(mod).values():
            if inspect.isclass(val) and val.__module__.startswith(package.__name__):
                owners.append(val)
    seen = set()
    for owner in owners:
        if id(owner) in seen:
            continue
        seen.add(id(owner))
        for attr, val in vars(owner).items():
            fn = getattr(val, "func", val)
            if hasattr(fn, WRAPPED):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced run."""
    s = tr.summary()

    def row(name):
        return s.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def meta_sum(name, key):
        return sum(tr.meta[i][key] for i in tr.spans_of(name) if i in tr.meta)

    def meta_max(name, key):
        return max((tr.meta[i][key] for i in tr.spans_of(name) if i in tr.meta), default=0)

    m: dict[str, float] = {
        "qcc.stabilizer.s": row("qcc.QccCode.stabilizer")["s"],
        "qcc.templates.s": row("qcc.QccCode.templates")["s"],
    }
    for name in ("qcc.encoding_matrix", "linalg.minimal_span_basis", "linalg.rref",
                 "linalg.kernel", "linalg.solve", "gfpoly.catastrophic_check",
                 "convcode.encode_stream", "pauli.StabilizerWindow", "statevec.StateVector"):
        m[f"{name}.calls"] = row(name)["calls"]
        m[f"{name}.self_s"] = row(name)["self_s"]

    bet = "qviterbi.build_error_trellis"
    m[f"{bet}.calls"] = row(bet)["calls"]
    m[f"{bet}.s"] = row(bet)["s"]
    m["qviterbi.trellis.states_max"] = meta_max(bet, "states_max")
    m["qviterbi.trellis.branches_per_block"] = meta_max(bet, "branches_per_block")
    m["qviterbi.trellis.table_mb"] = meta_max(bet, "table_bytes") / 1e6

    bd = "qviterbi.batch_decode"
    m[f"{bd}.calls"] = row(bd)["calls"]
    m[f"{bd}.s"] = row(bd)["s"]
    m[f"{bd}.syndromes"] = meta_sum(bd, "syndromes")
    m[f"{bd}.acs_ops"] = meta_sum(bd, "acs_ops")
    m["qviterbi.qva_decode.calls"] = row("qviterbi.qva_decode")["calls"]
    m["qviterbi.qva_decode.s"] = row("qviterbi.qva_decode")["s"]

    runs = tr.spans_of("channel.run_trials")
    m["channel.run_trials.self_s"] = row("channel.run_trials")["self_s"]
    trials = sum(tr.meta[i]["trials"] for i in runs)
    decoded = sum(tr.meta[c]["syndromes"] for i in runs for c in tr.children(i, bd))
    m["channel.unique_syndrome_ratio"] = decoded / trials if trials else 0.0

    md = "channel.measure_distance"
    m[f"{md}.s"] = row(md)["s"]
    m["channel.distance.kernel_vectors"] = sum(
        tr.meta[c]["vectors"] for i in tr.spans_of(md) for c in tr.children(i, "linalg.kernel")
    )

    gate_names = [f"statevec.StateVector.{g}" for g in GATES]
    m["statevec.gates"] = sum(row(g)["calls"] for g in gate_names)
    m["statevec.gate.self_s"] = sum(row(g)["self_s"] for g in gate_names)
    m["statevec.gate_mb"] = sum(meta_sum(g, "bytes") for g in gate_names) / 1e6
    for fn in ("encode_eq1", "decode_step_eq1", "fidelity"):
        m[f"statevec.{fn}.s"] = row(f"statevec.{fn}")["s"]
    m["statevec.apply_pauli.s"] = row("statevec.StateVector.apply_pauli")["s"]
    m["qcc.CodewordForm.amplitudes.s"] = row("qcc.CodewordForm.amplitudes")["s"]
    return m


# counters derived from sizes and arguments rather than measured; they
# repeat exactly for one seed
COMPUTED = (
    "qviterbi.trellis.states_max", "qviterbi.trellis.branches_per_block",
    "qviterbi.trellis.table_mb", "qviterbi.batch_decode.acs_ops",
    "channel.distance.kernel_vectors", "statevec.gate_mb",
)

LAYER_METRICS = (
    "qcc.stabilizer.s", "qcc.templates.s",
    "qcc.encoding_matrix.calls", "qcc.encoding_matrix.self_s",
    "linalg.minimal_span_basis.calls", "linalg.minimal_span_basis.self_s",
    "linalg.rref.calls", "linalg.rref.self_s",
    "linalg.kernel.calls", "linalg.kernel.self_s",
    "linalg.solve.calls", "linalg.solve.self_s",
    "gfpoly.catastrophic_check.calls", "gfpoly.catastrophic_check.self_s",
    "convcode.encode_stream.calls", "convcode.encode_stream.self_s",
    "pauli.StabilizerWindow.calls", "pauli.StabilizerWindow.self_s",
    "qviterbi.build_error_trellis.calls", "qviterbi.build_error_trellis.s",
    "qviterbi.trellis.states_max", "qviterbi.trellis.branches_per_block",
    "qviterbi.trellis.table_mb",
    "qviterbi.batch_decode.calls", "qviterbi.batch_decode.s",
    "qviterbi.batch_decode.syndromes", "qviterbi.batch_decode.acs_ops",
    "qviterbi.qva_decode.calls", "qviterbi.qva_decode.s",
    "channel.run_trials.self_s", "channel.unique_syndrome_ratio",
    "channel.measure_distance.s", "channel.distance.kernel_vectors",
    "statevec.gates", "statevec.gate.self_s", "statevec.gate_mb",
    "statevec.StateVector.calls", "statevec.StateVector.self_s",
    "statevec.encode_eq1.s", "statevec.decode_step_eq1.s",
    "statevec.apply_pauli.s", "statevec.fidelity.s",
    "qcc.CodewordForm.amplitudes.s",
    "trace.overhead_ratio",
)


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    return "count"
