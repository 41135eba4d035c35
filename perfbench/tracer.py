"""Per-layer tracing installed from outside the engine.

`Tracer.installed()` swaps timing wrappers in for the engine functions that
mark each layer's boundary, in every engine module that holds a reference
to them, and restores the originals on exit.  The wrappers pass arguments
and results through untouched, so traced outputs are bit-identical to
untraced ones.  Spans (name, start, end, parent) are kept in memory as flat
arrays and written once by `write`; a layer's self time is its span minus
the spans directly under it.

A helper that the engine no longer has under the name below is reported as
missing, and every metric that needs it is left out rather than read as 0.
"""

from __future__ import annotations

import contextlib
import gzip
import json
import time
from array import array

import numpy as np

# (module, function) pairs wrapped, by layer.
TARGETS = (
    ("cli", "main"),
    ("pricer", "price_curve"),
    ("pricer", "price_single_barrier"),
    ("pricer", "price_double_barrier"),
    ("pricer", "log_forward"),
    ("quadrature", "integrate"),
    ("kernels", "barrier_kernel"),
    ("kernels", "double_barrier_kernel"),
    ("kernels", "series_terms"),
    ("model", "bond_price"),
    ("model", "integrated_variance"),
    ("mc_oracle", "price_barrier_mc"),
    ("mc_oracle", "price_barrier_mc_two_factor"),
    ("mc_oracle", "bond_mc"),
    ("mc_oracle", "_block_rng"),
    ("mc_oracle", "_single_bridge_knockout"),
    ("mc_oracle", "_double_bridge_knockout"),
    ("mc_oracle", "_corridor_stay_prob_into"),
    ("mc_oracle", "_ou_paths_into"),
    ("mc_oracle", "_payoff_stats"),
)
_MODULES = ("cli", "pricer", "quadrature", "kernels", "model", "mc_oracle")
ESTIMATORS = ("price_barrier_mc", "price_barrier_mc_two_factor", "bond_mc")


class _TimedGenerator:
    """Stands in for a block's numpy Generator and times its two fills."""

    def __init__(self, gen, tracer: "Tracer"):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        with self._tracer.span("mc_oracle.normals"):
            return self._gen.standard_normal(*args, **kwargs)

    def random(self, *args, **kwargs):
        with self._tracer.span("mc_oracle.uniforms"):
            return self._gen.random(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


class Tracer:
    """In-memory spans and counters for the wrapped engine functions."""

    def __init__(self, vb):
        self.vb = vb
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.missing = [f"{m}.{f}" for m, f in TARGETS
                        if not callable(getattr(getattr(vb, m, None), f, None))]

    # -- spans and counters -------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, module: str, func: str, fn):
        label = f"{module}.{func}"
        if label == "cli.main":
            def traced(argv=None):  # figures and single prices kept apart
                with self.span(f"cli.main.{(argv or ['?'])[0]}"):
                    return fn(argv)
        elif label == "quadrature.integrate":
            def traced(f, *args, **kwargs):
                def integrand(x):
                    self.count("quadrature.abscissae", np.size(x))
                    with self.span("quadrature.integrand"):
                        return f(x)
                with self.span(label):
                    return fn(integrand, *args, **kwargs)
        elif label == "kernels.series_terms":
            def traced(*args, **kwargs):
                with self.span(label):
                    n = fn(*args, **kwargs)
                self.count("kernels.series_terms.total", n)
                return n
        elif label == "mc_oracle._block_rng":
            def traced(*args, **kwargs):
                with self.span(label):
                    return _TimedGenerator(fn(*args, **kwargs), self)
        elif label.endswith("_bridge_knockout"):
            def traced(*args, **kwargs):
                with self.span(label):
                    knocked = fn(*args, **kwargs)
                self.count("mc_oracle.monitored", knocked.size)
                self.count("mc_oracle.survivors", knocked.size - np.count_nonzero(knocked))
                return knocked
        else:
            def traced(*args, **kwargs):
                with self.span(label):
                    return fn(*args, **kwargs)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in every engine module that references it."""
        vb = self.vb
        swapped = []
        originals = {}
        for module, func in TARGETS:
            fn = getattr(getattr(vb, module, None), func, None)
            if callable(fn):
                originals[id(fn)] = (fn, self._wrap(module, func, fn))
        try:
            for mod in [vb] + [getattr(vb, m) for m in _MODULES if hasattr(vb, m)]:
                for attr, value in list(vars(mod).items()):
                    if id(value) in originals and originals[id(value)][0] is value:
                        swapped.append((mod, attr, value))
                        setattr(mod, attr, originals[id(value)][1])
            yield self
        finally:
            for mod, attr, value in swapped:
                setattr(mod, attr, value)

    # -- results ------------------------------------------------------------
    def write(self, path) -> None:
        """Write every span, once, as gzipped JSON columns."""
        doc = {"names": self.names, "name": self.name.tolist(), "parent": self.parent.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist(), "counters": self.counters}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def per_layer(self, rounds: int) -> dict:
        """Per-layer metrics, with counts per round; unit in each entry."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child = np.zeros_like(dur)
        np.add.at(child, parent[nested], dur[nested])
        k = len(self.names)
        calls = np.bincount(name, minlength=k).astype(float)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        # block count per estimator: _block_rng spans by their parent's name
        rng_id = self._ids.get("mc_oracle._block_rng", -1)
        rng_spans = (name == rng_id) & nested
        blocks_by = np.bincount(name[parent[rng_spans]], minlength=k)

        def get(table, key):
            i = self._ids.get(key)
            return float(table[i]) if i is not None else 0.0

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        figures = get(calls, "cli.main.curve")
        blocks = get(calls, "mc_oracle._block_rng")
        integrals = get(calls, "quadrature.integrate")
        out = {}

        def put(metric, unit, needs, value):
            if not any(f"{m}.{f}" in self.missing for m, f in needs):
                out[metric] = {"value": float(value), "unit": unit}

        put("cli.main.calls", "count/round", [("cli", "main")],
            (figures + get(calls, "cli.main.price")) / rounds)
        put("cli.self_ms_per_figure", "ms", [("cli", "main"), ("pricer", "price_curve")],
            per(get(own, "cli.main.curve"), figures, 1e3))
        for func, units in (("price_curve", ()), ("price_single_barrier", ("self_us",)),
                            ("price_double_barrier", ("self_us",))):
            key = f"pricer.{func}"
            put(f"{key}.calls", "count/round", [("pricer", func)], get(calls, key) / rounds)
            if units:
                put(f"{key}.self_us", "us", [("pricer", func), ("pricer", "log_forward"),
                                             ("quadrature", "integrate"), ("model", "bond_price"),
                                             ("model", "integrated_variance")],
                    per(get(own, key), get(calls, key), 1e6))
        put("pricer.log_forward.us", "us", [("pricer", "log_forward")],
            per(get(total, "pricer.log_forward"), get(calls, "pricer.log_forward"), 1e6))
        q = [("quadrature", "integrate")]
        put("quadrature.integrate.calls", "count/round", q, integrals / rounds)
        put("quadrature.integrate.self_us", "us", q,
            per(get(own, "quadrature.integrate"), integrals, 1e6))
        put("quadrature.abscissae_per_solve", "count", q,
            per(self.counters.get("quadrature.abscissae", 0.0), integrals))
        put("quadrature.integrand_us_per_solve", "us", q,
            per(get(total, "quadrature.integrand"), integrals, 1e6))
        for module, func in (("kernels", "barrier_kernel"), ("kernels", "double_barrier_kernel"),
                             ("model", "bond_price"), ("model", "integrated_variance")):
            key = f"{module}.{func}"
            put(f"{key}.calls", "count/round", [(module, func)], get(calls, key) / rounds)
            put(f"{key}.us", "us", [(module, func)], per(get(total, key), get(calls, key), 1e6))
        put("kernels.series_terms.mean", "count", [("kernels", "series_terms")],
            per(self.counters.get("kernels.series_terms.total", 0.0),
                get(calls, "kernels.series_terms")))

        rng = [("mc_oracle", "_block_rng")]
        put("mc_oracle.blocks", "count/round", rng, blocks / rounds)
        for est in ESTIMATORS:
            key = f"mc_oracle.{est}"
            put(f"{key}.ms_per_block", "ms", rng + [("mc_oracle", est)],
                per(get(total, key), get(blocks_by, key), 1e3))
        stages = {
            "normals": (get(total, "mc_oracle.normals"), rng),
            "uniforms": (get(total, "mc_oracle.uniforms"), rng),
            "single_knock": (get(own, "mc_oracle._single_bridge_knockout"),
                             rng + [("mc_oracle", "_single_bridge_knockout")]),
            "corridor_stay": (get(total, "mc_oracle._corridor_stay_prob_into"),
                              [("mc_oracle", "_corridor_stay_prob_into")]),
            "ou_paths": (get(total, "mc_oracle._ou_paths_into"), [("mc_oracle", "_ou_paths_into")]),
            "payoff": (get(total, "mc_oracle._payoff_stats"), [("mc_oracle", "_payoff_stats")]),
        }
        for stage, (seconds, needs) in stages.items():
            put(f"mc_oracle.{stage}_ms_per_block", "ms", rng + needs, per(seconds, blocks, 1e3))
        estimators = sum(get(total, f"mc_oracle.{e}") for e in ESTIMATORS)
        put("mc_oracle.rest_ms_per_block", "ms",
            rng + [("mc_oracle", e) for e in ESTIMATORS] + [n for _, ns in stages.values() for n in ns],
            per(estimators - sum(s for s, _ in stages.values()), blocks, 1e3))
        put("mc_oracle.survivor_share", "ratio",
            [("mc_oracle", "_single_bridge_knockout"), ("mc_oracle", "_double_bridge_knockout")],
            per(self.counters.get("mc_oracle.survivors", 0.0),
                self.counters.get("mc_oracle.monitored", 0.0)))
        return out
