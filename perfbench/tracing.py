"""Span tracing of dswlab's public functions, installed from outside the package.

Every plain function a dswlab module lists in ``__all__`` is replaced by a
wrapper that records a span: name, start, end, parent span and item id. The
wrapper is bound wherever the original object is bound in a dswlab module
(``index_engine.jacobi_sn_cn_dn``, ``waves.ellip_k``, ``cli.params_from_kappa``
and so on), so calls between modules are seen as well as calls from outside.
Two private hooks are counted without a span: ``hill.hill_potential`` (one
call per ODE right-hand side) and ``elliptic._agm_scheme`` (to see which
moduli run the AGM loop to its iteration cap). ``numpy.linalg.eig``, ``eigh``
and ``eigvalsh`` get a span only while a spectra span is open.

Spans stay in memory; ``layer_metrics`` turns them into per-layer figures
after the run. Everything is restored when ``installed`` exits.
"""

from __future__ import annotations

import importlib
import inspect
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("elliptic", "waves", "hill", "index_engine", "spectra", "evolution",
          "normal_form", "cli")
DECOMPOSITIONS = ("eig", "eigh", "eigvalsh")
UNSTABLE_MODES_N = (128, 256, 384)


def _jacobi_points(args, kwargs):
    return int(np.size(kwargs.get("u", args[0] if args else 0)))


def _unstable_modes_n(args, kwargs):
    return int(kwargs.get("N", args[1] if len(args) > 1 else 256))


# extra figure recorded with a span, keyed by span name
_META = {
    "elliptic.jacobi_sn_cn_dn": _jacobi_points,
    "spectra.unstable_modes": _unstable_modes_n,
}


class Tracer:
    """In-memory span store. Spans are lists [name, start, end, parent, item, meta]."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.agm_capped = {}      # modulus -> whether the AGM loop hit its cap
        self.item = None
        self.recording = False
        self._stack = []
        self._spectra_depth = 0

    def _open(self, name, meta):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item, meta]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def span_wrapper(self, name, fn):
        tracer = self
        meta_of = _META.get(name)
        is_spectra = name.startswith("spectra.")

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            rec = tracer._open(name, meta_of(args, kwargs) if meta_of else None)
            tracer._spectra_depth += is_spectra
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
                tracer._spectra_depth -= is_spectra

        traced.__wrapped__ = fn
        return traced

    def decomposition_wrapper(self, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not (tracer.recording and tracer._spectra_depth > 0):
                return fn(*args, **kwargs)
            rec = tracer._open("spectra.decomp", None)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def counter_wrapper(self, key, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.recording:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def agm_wrapper(self, fn, max_iter, tol):
        tracer = self

        def observed(kappa):
            a, c = fn(kappa)
            if tracer.recording:
                tracer.agm_capped[float(kappa)] = bool(
                    len(a) >= max_iter and abs(c[-1]) > tol * a[-1])
            return a, c

        observed.__wrapped__ = fn
        return observed


@contextmanager
def installed(tracer: Tracer):
    """Bind the tracer's wrappers into every dswlab module and numpy.linalg."""
    package = importlib.import_module("dswlab")
    modules = {layer: importlib.import_module(f"dswlab.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    restore = []

    def rebind(original, wrapper):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    restore.append((ns, attr, original))
                    setattr(ns, attr, wrapper)

    try:
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    rebind(fn, tracer.span_wrapper(f"{layer}.{attr}", fn))
        potential = getattr(modules["hill"], "hill_potential", None)
        if potential is not None:
            rebind(potential, tracer.counter_wrapper("hill.potential_calls", potential))
        ell = modules["elliptic"]
        agm = getattr(ell, "_agm_scheme", None)
        if agm is not None:
            rebind(agm, tracer.agm_wrapper(agm, ell._AGM_MAX_ITER, ell._AGM_TOL))
        for name in DECOMPOSITIONS:
            original = getattr(np.linalg, name)
            restore.append((np.linalg, name, original))
            setattr(np.linalg, name, tracer.decomposition_wrapper(original))
        yield tracer
    finally:
        for ns, attr, original in reversed(restore):
            setattr(ns, attr, original)


def span_totals(spans, item=None):
    """{name: (calls, inclusive seconds, self seconds)}; self excludes child spans.

    With ``item`` given, only the spans of that item are summed.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _, of_item, _) in enumerate(spans):
        if item is not None and of_item != item:
            continue
        agg = totals[name]
        agg[0] += 1
        agg[1] += end - start
        agg[2] += end - start - child[i]
    return {name: tuple(v) for name, v in totals.items()}


def layer_metrics(tracer: Tracer, problems: dict | None = None) -> dict:
    """Per-layer figures of one traced pass; layers the pass never called read 0.

    ``problems`` maps an item index to the evolve problem that item runs
    ("stiff" or "broadband") and its steps a run; the per-problem evolution
    metrics come from that item's spans.
    """
    totals = span_totals(tracer.spans)

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def self_ms(name):
        return 1e3 * totals.get(name, (0, 0.0, 0.0))[2]

    m = {
        "elliptic.jacobi.calls": calls("elliptic.jacobi_sn_cn_dn"),
        "elliptic.jacobi.points": sum(s[5] for s in tracer.spans
                                      if s[0] == "elliptic.jacobi_sn_cn_dn"),
        "elliptic.jacobi.self_ms": self_ms("elliptic.jacobi_sn_cn_dn"),
        "elliptic.ellip_k.calls": calls("elliptic.ellip_k"),
        "elliptic.agm_capped_share": (sum(tracer.agm_capped.values()) / len(tracer.agm_capped)
                                      if tracer.agm_capped else 0.0),
        "hill.integrate_hill_ivp.self_ms": self_ms("hill.integrate_hill_ivp"),
        "hill.potential_calls": tracer.counts["hill.potential_calls"],
        "index_engine.quad_calls": calls("index_engine.gauss_legendre_adaptive"),
        "spectra.dmatrix_via_collocation.self_ms": self_ms("spectra.dmatrix_via_collocation"),
        "spectra.assemble_operator.calls": calls("spectra.assemble_operator"),
        "spectra.assemble_operator.self_ms": self_ms("spectra.assemble_operator"),
        "spectra.dense_decomps": calls("spectra.decomp"),
        "spectra.decomp_ms": 1e3 * totals.get("spectra.decomp", (0, 0.0, 0.0))[1],
        "evolution.conserved_of_state.calls": calls("evolution.conserved_of_state"),
        "evolution.conserved_of_state.self_ms": self_ms("evolution.conserved_of_state"),
        "normal_form.verify_identity.calls": calls("normal_form.verify_identity"),
        "normal_form.verify_identity.self_ms": self_ms("normal_form.verify_identity"),
        "normal_form.normal_form_T.calls": calls("normal_form.normal_form_T"),
    }
    for fn in ("params_from_kappa", "eval_profile"):
        m[f"waves.{fn}.calls"] = calls(f"waves.{fn}")
        m[f"waves.{fn}.self_ms"] = self_ms(f"waves.{fn}")
    for fn in ("a_integrals", "psi_moments", "assemble_dmatrix", "build_varphi", "linv_apply"):
        m[f"index_engine.{fn}.self_ms"] = self_ms(f"index_engine.{fn}")
    for N in UNSTABLE_MODES_N:
        per_call = [s[2] - s[1] for s in tracer.spans
                    if s[0] == "spectra.unstable_modes" and s[5] == N]
        m[f"spectra.unstable_modes.ms.N{N}"] = 1e3 * statistics.median(per_call) if per_call else 0.0
    for item, (name, steps) in (problems or {}).items():
        runs = [s[2] - s[1] for s in tracer.spans if s[0] == "evolution.simulate" and s[4] == item]
        if runs and steps > 0:
            simulate = span_totals(tracer.spans, item).get("evolution.simulate", (0, 0.0, 0.0))
            m[f"evolution.simulate.self_ms.{name}"] = 1e3 * simulate[2]
            m[f"evolution.us_per_step.{name}"] = 1e6 * statistics.median(runs) / steps
    return m
