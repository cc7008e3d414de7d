"""Spans and counters around the package's public functions, kept in memory.

The tracer wraps every public function defined in the library modules and
rebinds the wrapper in every package namespace that binds the function
(``oracle``'s ``from .params import reduce`` included), so calls between
modules are seen too.  Nothing in the package changes: ``install`` and
``uninstall`` swap the bindings, and untraced ops run the original code.

The program is single-threaded and does no I/O besides the CLI's output, so
no layer queues or waits; spans therefore carry busy time only.
"""

from __future__ import annotations

import inspect
import sys
import time
import warnings
from array import array
from collections import Counter

LAYERS = ("params", "qes_core", "wavefunction", "oracle")
MAX_SPANS = 200_000  # spans kept for the trace file; later ones are only aggregated


class Tracer:
    def __init__(self, package: str = "sextic_qes"):
        self.package = package
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._stack: list[list] = []
        # per name id: [calls, total seconds, self seconds]
        self.stats: dict[int, list] = {}
        self.child_calls: Counter = Counter()  # (parent name, child name) -> calls
        self.counters: Counter = Counter()
        self._sid = 0
        self._op = -1
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._bindings: list[tuple[object, str, object, object]] = []
        self._build_bindings()

    # -- spans -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.stats[nid] = [0, 0.0, 0.0]
        return nid

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([self._sid, self._name_id(name), parent, time.perf_counter(), 0.0])
        self._sid += 1

    def exit(self) -> None:
        end = time.perf_counter()
        sid, nid, parent, start, child = self._stack.pop()
        dur = end - start
        st = self.stats[nid]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            top = self._stack[-1]
            top[4] += dur
            self.child_calls[(self.names[top[1]], self.names[nid])] += 1
        if len(self.span_start) < MAX_SPANS:
            self.span_id.append(sid)
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_op.append(self._op)
            self.span_start.append(start)
            self.span_end.append(end)
        else:
            self.counters["trace.dropped_spans"] += 1

    def run_op(self, root: str, fn, *args):
        """Call fn(*args) traced, under a root span that all its spans share."""
        self._op += 1
        self.install()
        self.enter(root)
        try:
            return fn(*args)
        finally:
            self.exit()
            self.uninstall()

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        if name == "params.solve_constraint":
            sig = inspect.signature(fn)

            def wrapper(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                unknown = next(
                    (k for k in ("omega_sq", "lam", "eta") if bound.arguments.get(k) is None), "none"
                )
                tracer.enter(f"{name}.{'omega2' if unknown == 'omega_sq' else unknown}")
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit()

        elif name == "wavefunction.count_nodes":

            def wrapper(*args, **kwargs):
                tracer.enter(name)
                try:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        return fn(*args, **kwargs)
                finally:
                    tracer.counters[f"{name}.degenerate_warnings"] += sum(
                        "multiple root" in str(w.message) for w in caught
                    )
                    tracer.exit()

        else:
            observe = _OBSERVERS.get(name)

            def wrapper(*args, **kwargs):
                if observe is not None:
                    observe(tracer.counters, args, kwargs)
                tracer.enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.exit()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _build_bindings(self) -> None:
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{self.package}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == self.package or modname.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    self._bindings.append((mod, attr, obj, w))

    def install(self) -> None:
        for mod, attr, _, w in self._bindings:
            setattr(mod, attr, w)

    def uninstall(self) -> None:
        for mod, attr, orig, _ in self._bindings:
            setattr(mod, attr, orig)

    # -- results ---------------------------------------------------------

    def calls(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return self.stats[nid][0] if nid is not None else 0

    def total_s(self, name: str) -> float:
        nid = self._name_ids.get(name)
        return self.stats[nid][1] if nid is not None else 0.0

    def ms_per_call(self, name: str) -> float:
        n = self.calls(name)
        return 1e3 * self.total_s(name) / n if n else 0.0

    def self_s(self, prefix: str) -> float:
        """Self time of every span whose name is prefix or starts with prefix + '.'."""
        return sum(
            self.stats[nid][2]
            for name, nid in self._name_ids.items()
            if name == prefix or name.startswith(prefix + ".")
        )

    def snapshot_calls(self) -> dict[str, int]:
        counts = {name: self.stats[nid][0] for name, nid in self._name_ids.items()}
        counts.update(self.counters)
        counts["trace.spans"] = self._sid
        for (parent, child), n in self.child_calls.items():
            counts[f"{parent}>{child}"] = n
        return counts

    def write(self, path) -> None:
        """Spans as TSV: id, name, parent id, op index, start and end in seconds."""
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\top\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_id[i]}\t{self.names[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_op[i]}\t{self.span_start[i]!r}\t{self.span_end[i]!r}\n"
                )


def _count_points(counters, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs.get("x")
    counters["wavefunction.eval_psi.points"] += getattr(x, "size", 1)


def _record_grid(counters, args, kwargs):
    grid = args[2] if len(args) > 2 else kwargs.get("grid")
    counters["oracle.grids"] += 1
    counters["oracle.grid_points_sum"] += grid.points
    counters["oracle.half_width_sum"] += grid.half_width


_OBSERVERS = {
    "wavefunction.eval_psi": _count_points,
    "oracle.lowest_eigenvalues_detail": _record_grid,
}
