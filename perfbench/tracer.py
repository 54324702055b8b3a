"""Span tracing shim around the quditbloch layers, from outside the library.

``Tracer.install`` replaces every public function of each layer module with a
wrapper that records one span (name, start, end, parent) per call. A wrapper
is bound wherever the original is reachable: at its own module attribute,
under names imported by name into other modules (``entanglement.
min_product_expectation``, ``bases.clebsch_gordan``, ``cli.hs_measure_*``),
in the package namespace, and in module-level dicts (``bases._BUILDERS``).
``numpy.linalg.eigh`` is replaced by a counter of the calls made from inside
a ``gilbert`` span. Spans are kept in flat arrays while the run lasts and
written out once at the end. They are timed with ``calibrate.busy_clock``,
so the host-speed sampler's kernel runs are not counted in them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array

import numpy as np

import calibrate

LAYERS = ("cli", "entanglement", "states", "linalg", "gilbert", "bases", "cg", "bloch")
# private functions that carry a per-layer metric of their own
PRIVATE = {"gilbert": ("_solve_simplex_weights",)}
BUILD = ":build"     # suffix of a memoized basis constructor call that missed its cache


def _is_traceable(obj, module_name: str) -> bool:
    if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
        return False
    return getattr(obj, "__module__", None) == module_name


class Tracer:
    """Spans and counters of one traced run; recording only while ``active``."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.active = False
        self.eigh_calls = 0
        self.oracle_iterations = 0
        self.oracle_converged = 0
        self.witness_certified = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        cache_info = getattr(fn, "cache_info", None)
        build_id = self._id(name + BUILD) if cache_info else None
        hook = {"gilbert.nearest_separable_numeric": self._on_oracle,
                "entanglement.verify_witness": self._on_witness}.get(name)
        names, parents, starts, ends = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)
        stack, clock = self._stack, calibrate.busy_clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            misses = cache_info().misses if cache_info else 0
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if cache_info and cache_info().misses != misses:
                names[i] = build_id
            if hook:
                hook(result)
            return result

        return traced

    def _on_oracle(self, result) -> None:
        self.oracle_iterations += result.iterations
        self.oracle_converged += bool(result.converged)

    def _on_witness(self, report) -> None:
        self.witness_certified += report.method.value.startswith("Lemma")

    def install(self) -> None:
        package = importlib.import_module("quditbloch")
        modules = [importlib.import_module(f"quditbloch.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                if _is_traceable(obj, mod.__name__):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))

        def replacement(obj):
            hit = wrapped.get(id(obj))
            return hit[1] if hit and hit[0] is obj else None

        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                if replacement(obj):
                    setattr(mod, attr, replacement(obj))
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if replacement(value):
                            obj[key] = replacement(value)

        gilbert_ids = {i for name, i in self._ids.items() if name.startswith("gilbert.")}
        eigh = np.linalg.eigh

        def counted_eigh(*args, **kwargs):
            top = self._stack[-1]
            if self.active and top >= 0 and self.span_name[top] in gilbert_ids:
                self.eigh_calls += 1
            return eigh(*args, **kwargs)

        np.linalg.eigh = counted_eigh

    # -- derived metrics ----------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


class SpanTable:
    """Counts, inclusive and self times of groups of span names."""

    def __init__(self, spans: dict):
        self.names = list(spans["names"])
        self.name = spans["name"]
        self.parent = spans["parent"]
        self.dur = spans["end"] - spans["start"]
        has_parent = self.parent >= 0
        children = np.zeros_like(self.dur)
        np.add.at(children, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - children

    def _mask(self, names) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def calls(self, *names) -> int:
        return int(self._mask(names).sum())

    def inclusive(self, *names) -> float:
        """Time inside any of ``names``, nested calls among them counted once."""
        member = self._mask(names)
        nested = np.zeros_like(member)
        anc = self.parent.copy()
        while (live := anc >= 0).any():
            nested[live] |= member[anc[live]]
            anc[live] = self.parent[anc[live]]
        return float(self.dur[member & ~nested].sum())

    def self_s(self, *names) -> float:
        return float(self.self_time[self._mask(names)].sum())


def _frac(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cg_hits: int, cg_misses: int) -> dict:
    """The per-layer metrics of BENCHMARK.json from one traced run."""
    t = SpanTable(tracer.arrays())
    construct = ["states." + n for n in ("two_param_qubit", "two_param_qutrit",
                                         "two_param_qubit_pauli", "weyl_bell_projector",
                                         "isotropic_state", "bell_state")]
    measure = ["entanglement.hs_measure_" + n for n in ("isotropic", "qubit_plane",
                                                        "qutrit_plane")]
    oracle = "gilbert.nearest_separable_numeric"
    seesaw = "gilbert.best_product_state"
    simplex = "gilbert._solve_simplex_weights"
    witness = "entanglement.verify_witness"
    oracle_calls = t.calls(oracle)
    return {
        "states.construct_calls": t.calls(*construct),
        "states.construct_s": t.inclusive(*construct),
        "states.composite_calls": t.calls("states.composite_operator"),
        "states.composite_s": t.inclusive("states.composite_operator"),
        "entanglement.classify_calls": t.calls("entanglement.classify_qubit_plane",
                                               "entanglement.classify_qutrit_plane"),
        "entanglement.measure_calls": t.calls(*measure),
        "entanglement.measure_self_s": t.self_s(*measure),
        "entanglement.verify_witness_calls": t.calls(witness),
        "entanglement.verify_witness_self_s": t.self_s(witness),
        "entanglement.certified_frac": _frac(tracer.witness_certified, t.calls(witness)),
        "linalg.partial_transpose_calls": t.calls("linalg.partial_transpose"),
        "linalg.partial_transpose_s": t.inclusive("linalg.partial_transpose"),
        "cli.run_sweep_s": t.inclusive("cli.run_sweep"),
        "cli.emit_s": t.inclusive("cli.cli_main") - t.inclusive("cli.run_sweep"),
        "gilbert.seesaw_calls": t.calls(seesaw),
        "gilbert.seesaw_s": t.inclusive(seesaw),
        "gilbert.eigh_calls": tracer.eigh_calls,
        "gilbert.oracle_calls": oracle_calls,
        "gilbert.oracle_self_s": t.self_s(oracle),
        "gilbert.simplex_calls": t.calls(simplex),
        "gilbert.simplex_s": t.inclusive(simplex),
        "gilbert.fw_iterations": tracer.oracle_iterations,
        "gilbert.converged_frac": _frac(tracer.oracle_converged, oracle_calls),
        "bases.build_ggb_s": t.inclusive("bases.ggb_basis" + BUILD),
        "bases.build_pob_s": t.inclusive("bases.pob_basis" + BUILD),
        "bases.build_wob_s": t.inclusive("bases.wob_basis" + BUILD),
        "cg.calls": t.calls("cg.clebsch_gordan"),
        "cg.s": t.inclusive("cg.clebsch_gordan"),
        "cg.cache_hit_frac": _frac(cg_hits, cg_hits + cg_misses),
        "bloch.encode_calls": t.calls("bloch.bloch_encode"),
        "bloch.encode_s": t.inclusive("bloch.bloch_encode"),
        "bloch.decode_s": t.inclusive("bloch.bloch_decode"),
        "bloch.decompose_calls": t.calls("bloch.bipartite_decompose"),
        "bloch.decompose_s": t.inclusive("bloch.bipartite_decompose"),
        "trace.spans": len(t.dur),
    }
