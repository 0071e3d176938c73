"""Layer tracer: wraps qborel's public functions from outside the package.

``Tracer.install()`` replaces every public function of each layer module,
and every public method, property getter and arithmetic operator of the
classes defined there, with a wrapper.  A module function is replaced in
every qborel namespace that holds it, so a name imported with
``from .pbw import ls_relation`` is traced in ``cli`` and ``uqplus`` too,
and so is a name the benchmark's ``workloads`` module imported.
Methods are patched on the class.  ``uninstall()`` puts the originals back.

Every wrapped call is counted and its time is charged to its layer; time
spent in a nested call of another layer is charged to that layer, so the
per-layer ``self_s`` figures and the benchmark's own time add up to the
traced wall time.  Hot leaves (the QRat operators, ``add_scaled``, the
Weyl group products) are kept as counts and summed times only.  The coarse
calls named in ``SPANS`` also record one span each (name, start, end,
parent span, operation), kept in memory and written out by ``write()``;
their number is capped so memory stays bounded.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# layer name -> module; the layers of the benchmark are these modules
LAYERS = {
    "coeffs": "qborel.coeffs",
    "rootsys": "qborel.rootsys",
    "weyl": "qborel.weyl",
    "strata": "qborel.strata",
    "free": "qborel.uqplus.free",
    "linalg": "qborel.uqplus.linalg",
    "full": "qborel.uqplus.full",
    "pbw": "qborel.uqplus.pbw",
    "hopf": "qborel.uqplus.hopf",
    "cli": "qborel.cli",
}

ARITHMETIC = {"__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "__pow__"}

# calls that record one span each and whose inclusive time is summed
# (outermost activation only)
SPANS = {
    "free.NFContext._build_component",
    "full.root_vectors",
    "pbw.ls_relation",
    "pbw.pbw_expand",
    "hopf.twist_generators",
    "hopf.coideal_check",
    "hopf.span_is_Q_graded",
    "weyl.all_reduced_words",
    "strata.enumerate_strata",
    "cli.suite_strata",
    "cli.suite_weyl",
    "cli.suite_hopf",
}
# calls too frequent for a span each, whose inclusive time is still summed
TIMED = SPANS | {"weyl.bruhat_le", "pbw.pbw_data"}
SPAN_CAP = 100_000

INSERT = "linalg.SpanSolver.insert"
ECHELON = "free.NFContext._build_component"

# metric name -> (unit, how it is read from the trace)
PER_LAYER = {
    "coeffs.mul.calls": ("count", ("calls", "coeffs.QRat.__mul__")),
    "coeffs.add.calls": ("count", ("calls", "coeffs.QRat.__add__")),
    "coeffs.inverse.calls": ("count", ("calls", "coeffs.QRat.inverse")),
    "coeffs.self_s": ("s", ("self", "coeffs")),
    "linalg.insert.calls": ("count", ("calls", INSERT)),
    "linalg.insert.rank_gain": ("count", ("events", "insert.rank_gain")),
    "linalg.insert.useful_ratio": ("ratio", ("ratio", "insert.rank_gain", INSERT)),
    "linalg.solve.calls": ("count", ("calls", "linalg.solve_in_span")),
    "linalg.self_s": ("s", ("self", "linalg")),
    "free.component.built": ("count", ("calls", ECHELON)),
    "free.echelon.inserts": ("count", ("events", "echelon.inserts")),
    "free.echelon.rank": ("count", ("events", "echelon.rank")),
    "free.echelon.total_s": ("s", ("total", ECHELON)),
    "free.reduce.calls": ("count", ("calls", "free.NFContext.reduce")),
    "free.self_s": ("s", ("self", "free")),
    "full.umul.calls": ("count", ("calls", "full.UElt.__mul__")),
    "full.lusztig_T.calls": ("count", ("calls", "full.lusztig_T")),
    "full.root_vectors.total_s": ("s", ("total", "full.root_vectors")),
    "full.self_s": ("s", ("self", "full")),
    "pbw.pbw_data.total_s": ("s", ("total", "pbw.pbw_data")),
    "pbw.ls_relation.calls": ("count", ("calls", "pbw.ls_relation")),
    "pbw.pbw_expand.calls": ("count", ("calls", "pbw.pbw_expand")),
    "pbw.pbw_expand.total_s": ("s", ("total", "pbw.pbw_expand")),
    "pbw.self_s": ("s", ("self", "pbw")),
    "hopf.coproduct.calls": ("count", ("calls", "hopf.coproduct")),
    "hopf.twist_generators.total_s": ("s", ("total", "hopf.twist_generators")),
    "hopf.coideal_check.total_s": ("s", ("total", "hopf.coideal_check")),
    "hopf.span_is_Q_graded.total_s": ("s", ("total", "hopf.span_is_Q_graded")),
    "hopf.self_s": ("s", ("self", "hopf")),
    "weyl.bruhat_le.calls": ("count", ("calls", "weyl.bruhat_le")),
    "weyl.bruhat_le.total_s": ("s", ("total", "weyl.bruhat_le")),
    "weyl.elt_mul.calls": ("count", ("calls", "weyl.WeylElt.__mul__")),
    "weyl.all_reduced_words.total_s": ("s", ("total", "weyl.all_reduced_words")),
    "weyl.self_s": ("s", ("self", "weyl")),
    "strata.enumerate_Tw.calls": ("count", ("calls", "strata.enumerate_Tw")),
    "strata.enumerate_strata.total_s": ("s", ("total", "strata.enumerate_strata")),
    "strata.self_s": ("s", ("self", "strata")),
    "rootsys.bilinear.calls": ("count", ("calls", "rootsys.bilinear")),
    "rootsys.lattice_contains.calls": ("count", ("calls", "rootsys.LatticeSubgroup.contains")),
    "rootsys.self_s": ("s", ("self", "rootsys")),
    "cli.strata.total_s": ("s", ("total", "cli.suite_strata")),
    "cli.weyl.total_s": ("s", ("total", "cli.suite_weyl")),
    "cli.hopf.total_s": ("s", ("total", "cli.suite_hopf")),
    "cli.self_s": ("s", ("self", "cli")),
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.events: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.depth: Counter = Counter()
        self.spans: list = []  # (id, parent id, operation label, name, start, end)
        self.dropped = 0
        self._span_stack: list = [None]
        self._op = None
        self._layer = "bench"
        self._layer_stack: list = []
        self._mark = time.perf_counter()
        self._patches: list = []  # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the layers, in qborel and in the workloads module."""
        import workloads

        spaces = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "qborel"]
        spaces.append(workloads)
        for layer, modname in LAYERS.items():
            mod = importlib.import_module(modname)
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != modname:
                    continue
                if isinstance(obj, type):
                    # private classes too: the PBW caches and the generated
                    # coideal span are reached through their public methods
                    self._wrap_class(layer, obj)
                elif callable(obj) and not attr.startswith("_"):
                    wrapped = self._wrapper(obj, f"{layer}.{attr}", layer)
                    for space in spaces:
                        for key, val in list(vars(space).items()):
                            if val is obj:
                                self._set(space, key, wrapped)
        # the Serre echelon of one weight component runs inside the public
        # NFContext.component; it is traced under its own name
        ctx = sys.modules[LAYERS["free"]].NFContext
        echelon = self._wrapper(vars(ctx)["_build_component"], ECHELON, "free")
        self._set(ctx, "_build_component", echelon)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrapper(obj.__func__, name, layer)))
            elif isinstance(obj, property) and obj.fget is not None:
                getter = self._wrapper(obj.fget, name, layer)
                self._set(cls, attr, property(getter, obj.fset, obj.fdel, obj.__doc__))
            elif callable(obj) and not isinstance(obj, type):
                self._set(cls, attr, self._wrapper(obj, name, layer))

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers ------------------------------------------------------------

    def _wrapper(self, fn, name: str, layer: str):
        tr = self
        clock = time.perf_counter
        calls = self.calls
        self_s = self.self_s
        stack = self._layer_stack

        if name not in TIMED and name != INSERT:

            def leaf(*args, **kwargs):
                now = clock()
                self_s[tr._layer] += now - tr._mark
                stack.append(tr._layer)
                tr._layer = layer
                tr._mark = now
                calls[name] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    self_s[layer] += end - tr._mark
                    tr._layer = stack.pop()
                    tr._mark = end

            return leaf

        span = name in SPANS

        def timed(*args, **kwargs):
            now = clock()
            self_s[tr._layer] += now - tr._mark
            stack.append(tr._layer)
            tr._layer = layer
            tr._mark = now
            calls[name] += 1
            tr.depth[name] += 1
            sid = tr._open_span() if span else None
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self_s[layer] += end - tr._mark
                tr._layer = stack.pop()
                tr._mark = end
                tr.depth[name] -= 1
                if not tr.depth[name]:
                    tr.total_s[name] += end - now
                if span:
                    tr._close_span(sid, name, now, end)
            if name == INSERT:
                tr._count_insert(result)
            return result

        return timed

    def _count_insert(self, gained: bool) -> None:
        ev = self.events
        in_echelon = self.depth[ECHELON] > 0
        if gained:
            ev["insert.rank_gain"] += 1
            if in_echelon:
                ev["echelon.rank"] += 1
        if in_echelon:
            ev["echelon.inserts"] += 1

    # -- spans ---------------------------------------------------------------

    def _open_span(self) -> int:
        sid = len(self.spans) + self.dropped + len(self._span_stack)
        self._span_stack.append(sid)
        return sid

    def _close_span(self, sid: int, name: str, start: float, end: float) -> None:
        self._span_stack.pop()
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, self._span_stack[-1], self._op, name, start, end))
        else:
            self.dropped += 1

    def begin_op(self, label: str) -> tuple[int, float]:
        """Open the root span of one benchmark operation."""
        self._op = label
        return self._open_span(), time.perf_counter()

    def end_op(self, opened: tuple[int, float]) -> None:
        sid, start = opened
        self._close_span(sid, "bench.op", start, time.perf_counter())
        self._op = None

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """The per-layer metrics, as plain numbers keyed by metric name."""
        self.self_s[self._layer] += time.perf_counter() - self._mark
        self._mark = time.perf_counter()
        out = {}
        for metric, (_unit, (kind, *keys)) in PER_LAYER.items():
            if kind == "calls":
                out[metric] = self.calls[keys[0]]
            elif kind == "events":
                out[metric] = self.events[keys[0]]
            elif kind == "total":
                out[metric] = self.total_s[keys[0]]
            elif kind == "self":
                out[metric] = self.self_s[keys[0]]
            else:
                attempts = self.calls[keys[1]]
                out[metric] = self.events[keys[0]] / attempts if attempts else 0.0
        return out

    def write(self, path, header: dict) -> None:
        doc = dict(header)
        doc["dropped_spans"] = self.dropped
        doc["calls"] = dict(sorted(self.calls.items()))
        doc["self_s"] = dict(sorted(self.self_s.items()))
        doc["spans"] = [
            {"id": s, "parent": p, "op": op, "name": n, "start": a, "end": b}
            for s, p, op, n, a, b in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)
