"""Span tracer that wraps curralg's layer functions from outside the package.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
target function or method with a wrapper that records one span per call:
a name, a start and end time (``perf_counter_ns``) and the index of the
enclosing span.  Spans are kept in flat arrays in memory and written out
once, at the end, by ``Tracer.write``; ``Tracer.restore`` puts every
original back.

A module-level function is rebound everywhere the package holds it: in
its own module, in every ``curralg`` module that imported it by name
(``cli`` imports ``apply_body``, ``build_su``, ...), and as a value of any
module-level dict (``cli._COMMANDS`` maps subcommands to ``cmd_*``).  A
method is rebound under every name its class holds it by, so calls through
an alias made in the class body (``__rmul__ = __mul__``) count as calls of
the method.

Per name the tracer keeps, while it runs:

* ``calls``: exact call count;
* ``self_ns``: span time minus the time its child spans cover, from the
  span stack;
* ``total_ns``: span time of outermost calls only, so a name that nests
  inside itself is not counted twice;
* ``distinct``: for the names with a ``distinct_ratio`` stat, the set
  of distinct argument tuples (``self`` included), held by strong reference
  so that an object's ``id`` is never reused inside the set.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import os
import sys
import time

__all__ = ["LAYERS", "Tracer", "load_spans", "self_times_from_spans"]

# Every traced layer boundary as "<module>.<qualname>" under ``curralg``,
# with the stats the benchmark reports for it.  A "distinct_ratio" stat
# makes the tracer collect the argument tuples of that name.
LAYERS = (
    ("formal_algebra.jacobi_sweep", ("total_s",)),
    ("formal_algebra.emb1_obstruction", ("total_s",)),
    ("formal_algebra.verify_embedding", ("total_s",)),
    ("formal_algebra.jacobiator", ("calls", "self_s")),
    ("formal_algebra.bracket", ("calls", "self_s", "distinct_ratio")),
    ("formal_algebra.reduce_closedness", ("calls", "self_s")),
    ("poly.Poly.__mul__", ("calls", "self_s")),
    ("poly.Poly.evaluate", ("calls", "self_s")),
    ("scalars.SurdSum.__mul__", ("calls", "self_s")),
    ("fock_oracle.FockOracle.commutator_column", ("calls", "self_s")),
    ("fock_oracle.FockOracle.apply_exact", ("calls", "self_s", "distinct_ratio")),
    ("fock_oracle.apply_body", ("calls", "self_s")),
    ("fock_oracle.state_project", ("calls", "self_s")),
    ("fock_oracle.states_equal", ("calls", "self_s")),
    ("fock_oracle.FockOracle.safe_keys", ("total_s",)),
    ("vertex_fock.OperatorMatrix.column", ("calls", "self_s", "distinct_ratio")),
    ("vertex_fock.OperatorMatrix.commutator_column", ("calls", "self_s")),
    ("vertex_fock.VertexSpace.apply_vertex", ("calls", "self_s")),
    ("vertex_fock.VertexSpace.apply_current", ("calls", "self_s")),
    ("vertex_fock.VertexSpace.project", ("calls", "self_s")),
    ("vertex_fock.check_table_numeric", ("total_s",)),
    ("vertex_fock.measure_c1_c2", ("total_s",)),
    ("vertex_fock.measure_vertex_level", ("total_s",)),
    ("wick_currents.mode_commutator", ("total_s",)),
    ("wick_currents.check_km_table", ("total_s",)),
    ("wick_currents.measure_level", ("total_s",)),
    ("wick_currents.measure_k1_k2", ("total_s",)),
    ("wick_currents.build_currents", ("total_s",)),
    ("lie_core.build_su", ("total_s",)),
    ("lie_core.verify_identities", ("total_s",)),
    ("reports.Report.render_text", ("total_s",)),
    ("cli.cmd_verify_tables", ("total_s",)),
    ("cli.cmd_verify_fock", ("total_s",)),
    ("cli.cmd_measure", ("total_s",)),
)

_PACKAGE = "curralg"


class Tracer:
    """Record spans around the functions named in ``layers``."""

    def __init__(self, layers=LAYERS):
        self.names = [name for name, _ in layers]
        n = len(self.names)
        self.calls = [0] * n
        self.self_ns = [0] * n
        self.total_ns = [0] * n
        self._depth = [0] * n
        self.distinct = {nid: set() for nid, (_, stats) in enumerate(layers) if "distinct_ratio" in stats}
        # one entry per span, indexed by span id
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        # open spans; the sentinels stand for "no parent"
        self._open_ids = [-1]
        self._open_child_ns = [0]
        self._patches: list = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, nid: int):
        seen = self.distinct.get(nid)
        calls, self_ns, total_ns, depth = self.calls, self.self_ns, self.total_ns, self._depth
        span_name, span_parent = self.span_name.append, self.span_parent.append
        span_start, span_end = self.span_start, self.span_end
        open_ids, open_child = self._open_ids, self._open_child_ns
        now = time.perf_counter_ns

        def traced(*args, **kwargs):
            if seen is not None:
                seen.add((args, tuple(sorted(kwargs.items()))) if kwargs else args)
            sid = len(span_end)
            span_name(nid)
            span_parent(open_ids[-1])
            span_start.append(0)
            span_end.append(0)
            open_ids.append(sid)
            open_child.append(0)
            depth[nid] += 1
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = now()
                open_ids.pop()
                children = open_child.pop()
                dur = t1 - t0
                open_child[-1] += dur
                span_start[sid] = t0
                span_end[sid] = t1
                calls[nid] += 1
                self_ns[nid] += dur - children
                depth[nid] -= 1
                if depth[nid] == 0:
                    total_ns[nid] += dur

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Import the package modules and replace every target."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [name.split(".", 1) for name in self.names]
        for mod, _ in modules:
            importlib.import_module(f"{_PACKAGE}.{mod}")
        package_modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == _PACKAGE or name.startswith(_PACKAGE + "."))
        ]
        for nid, (mod, qual) in enumerate(modules):
            owner_name, _, attr = qual.rpartition(".")
            module = sys.modules[f"{_PACKAGE}.{mod}"]
            if owner_name:
                owner = getattr(module, owner_name)
                original = vars(owner)[attr]
                holders = [owner]  # the class: its aliases of the method
            else:
                original = getattr(module, attr)
                holders = package_modules
            wrapper = self._wrap(original, nid)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original, setattr))
                        setattr(holder, key, wrapper)
                    elif type(value) is dict:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patches.append((value, dkey, original, dict.__setitem__))
                                value[dkey] = wrapper

    def restore(self) -> None:
        """Put every original function back, in reverse order of patching."""
        while self._patches:
            container, key, original, setter = self._patches.pop()
            setter(container, key, original)

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self and total seconds, and distinct ratios."""
        out = {}
        for nid, name in enumerate(self.names):
            row = {
                "calls": self.calls[nid],
                "self_s": self.self_ns[nid] / 1e9,
                "total_s": self.total_ns[nid] / 1e9,
            }
            if nid in self.distinct:
                calls = self.calls[nid]
                row["distinct"] = len(self.distinct[nid])
                row["distinct_ratio"] = len(self.distinct[nid]) / calls if calls else 0.0
            out[name] = row
        return out

    def write(self, path: str) -> None:
        """Write the spans to ``path`` (binary arrays) and ``path + '.json'``."""
        with open(path, "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        meta = {
            "names": self.names,
            "spans": len(self.span_end),
            "layout": ["name:i", "parent:i", "start_ns:q", "end_ns:q"],
        }
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def load_spans(path: str) -> tuple:
    """Read spans written by ``Tracer.write``: (names, name, parent, start, end)."""
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    count = meta["spans"]
    columns = [array.array(code) for code in ("i", "i", "q", "q")]
    if os.path.getsize(path) != sum(col.itemsize for col in columns) * count:
        raise ValueError(f"{path}: size does not match {count} spans")
    with open(path, "rb") as fh:
        for col in columns:
            col.fromfile(fh, count)
    return (meta["names"], *columns)


def self_times_from_spans(names, span_name, span_parent, span_start, span_end) -> dict:
    """Self time per name in ns, recomputed from written spans."""
    covered = [0] * len(span_end)
    for sid in range(len(span_end)):
        parent = span_parent[sid]
        if parent >= 0:
            covered[parent] += span_end[sid] - span_start[sid]
    out = dict.fromkeys(names, 0)
    for sid in range(len(span_end)):
        out[names[span_name[sid]]] += span_end[sid] - span_start[sid] - covered[sid]
    return out
