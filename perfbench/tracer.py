"""Outside-in tracer for hjts: wraps the layers' public functions without editing them.

Modules bind their collaborators with ``from .linalg import eigh``, so a
wrapper installed only on ``hjts.linalg.eigh`` would miss every call made
from ``spectral``, ``duality``, ``harness`` and the rest.  :class:`Tracer`
therefore replaces the original in *every* ``hjts.*`` namespace that binds
it, and puts each one back on exit.

Each wrapped call becomes a span ``[name, start, end, parent, sample]`` kept
in memory; :meth:`Tracer.summary` turns them into per-layer call counts and
self times (a span's duration minus the durations of its direct children)
and :meth:`Tracer.write` saves them when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

#: Layer -> public functions traced in it.  ``kinds`` is left out on purpose:
#: its conversions are slicing, and their time lands in their callers' self time.
LAYERS = {
    "linalg": ("eigh", "svd", "takagi", "hermitian_power", "cholesky_logdet",
               "solve", "det", "as_matrix", "as_vector"),
    "jts": ("Element", "d_operator", "q_operator", "bergman_operator",
            "triple_product", "in_domain"),
    "spectral": ("spectral_values", "spectral_decompose", "log_generic_norm_minus",
                 "log_generic_norm_plus", "quasi_inverse"),
    "duality": ("psi", "psi_inverse"),
    "geometry": ("potential", "complex_hessian", "real_jacobian", "kahler_matrix"),
    "harness": ("run_suite", "sample_domain"),
}

#: Functions whose span name carries the value of their ``route`` argument.
ROUTED = {("duality", "psi"), ("duality", "psi_inverse")}

#: Span name of one entry of ``hjts.harness._SUITE_EVALS`` (one sample).
SAMPLE_SPAN = "harness.sample"


def span_names() -> list[str]:
    """Every span name the tracer can record, in layer order."""
    from hjts.duality import DualityRoute

    names = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            if (layer, fn) in ROUTED:
                names.extend(f"{layer}.{fn}.{route.value}" for route in DualityRoute)
            else:
                names.append(f"{layer}.{fn}")
    return names + [SAMPLE_SPAN]


def hjts_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hjts" or name.startswith("hjts."))]


class Tracer:
    """Context manager that records a span for every call into a traced layer."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.sample = -1
        self.eigh_work_n3 = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.sample]
        stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()

    def _wrapper(self, layer: str, attr: str, original):
        name = f"{layer}.{attr}"
        tracer = self
        if (layer, attr) in ROUTED:
            default = inspect.signature(original).parameters["route"].default

            @functools.wraps(original)
            def routed(*args, **kwargs):
                route = args[1] if len(args) > 1 else kwargs.get("route", default)
                return tracer.call(f"{name}.{route.value}", original, *args, **kwargs)
            return routed
        if name == "linalg.eigh":
            @functools.wraps(original)
            def counted(*args, **kwargs):
                tracer.eigh_work_n3 += np.shape(args[0] if args else kwargs["a"])[0] ** 3
                return tracer.call(name, original, *args, **kwargs)
            return counted

        @functools.wraps(original)
        def plain(*args, **kwargs):
            return tracer.call(name, original, *args, **kwargs)
        return plain

    # -- installation ------------------------------------------------------

    def originals(self) -> dict:
        """id(original) -> (layer, attribute, original) for every traced function."""
        import hjts  # noqa: F401  (loads every layer module)

        found = {}
        for layer, functions in LAYERS.items():
            module = sys.modules[f"hjts.{layer}"]
            for attr in functions:
                if attr == "Element":
                    continue  # traced at its validation hook, see install()
                fn = getattr(module, attr)
                found[id(fn)] = (layer, attr, fn)
        return found

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for key, (layer, attr, fn) in self.originals().items():
            wrappers[key] = (fn, self._wrapper(layer, attr, fn))
        for module in hjts_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))
        # Element validation runs in __post_init__, which the dataclass
        # __init__ looks up on the class at every construction.
        element = sys.modules["hjts.jts"].Element
        post_init = element.__dict__["__post_init__"]
        tracer = self

        @functools.wraps(post_init)
        def traced_post_init(obj):
            return tracer.call("jts.Element", post_init, obj)

        element.__post_init__ = traced_post_init
        self._patched.append((element, "__post_init__", post_init))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """{span name: (calls, self seconds)} over every recorded span."""
        count = len(self.spans)
        start = np.fromiter((s[1] for s in self.spans), float, count)
        end = np.fromiter((s[2] for s in self.spans), float, count)
        parent = np.fromiter((s[3] for s in self.spans), np.int64, count)
        duration = end - start
        covered = np.zeros(count)
        nested = parent >= 0
        np.add.at(covered, parent[nested], duration[nested])
        self_time = duration - covered
        out = defaultdict(lambda: [0, 0.0])
        for span, own in zip(self.spans, self_time.tolist()):
            row = out[span[0]]
            row[0] += 1
            row[1] += own
        return {name: (calls, own) for name, (calls, own) in out.items()}

    def write(self, path) -> None:
        """Save the spans as arrays (names are indices into ``names``)."""
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        np.savez_compressed(
            path,
            names=np.array(names),
            name=np.array([index[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            sample=np.array([s[4] for s in self.spans], dtype=np.int64),
        )
