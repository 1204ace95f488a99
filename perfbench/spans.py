"""Per-layer tracing installed from outside the package.

``Tracer.install`` replaces the public functions of every ``arglue``
module, plus the few private callables that the per-layer metrics name,
with wrappers that record one span per call.  Nothing under ``src/`` is
edited; uninstalling restores the original objects.  Untraced runs never
construct a ``Tracer``.

A span is ``(name, start, end, parent, item)``.  Spans are kept in flat
arrays while the run lasts and written out once at the end.  A span's
self time is its duration minus the time its direct child spans cover;
work in unwrapped callees (``Fraction`` arithmetic, the helpers in
``SKIP``, methods of ``Representation``) counts toward the wrapped
caller.
"""

import array
import importlib
import inspect
import json
import os
import time

from coldstart import LAYERS

# linalg's elementwise and reshaping helpers run hundreds of thousands of
# times per round and do little work per call; a wrapper on them would
# cost more than they do, so their time counts toward their callers
SKIP = {("linalg", name) for name in (
    "zeros", "shape", "identity", "copy_matrix", "matadd", "matsub",
    "scale", "transpose", "hstack", "is_zero_matrix", "columns_to_matrix",
    "matrix_to_columns")}

# private callables that per-layer metrics name: (module, class or None,
# attribute) -> span name
PRIVATE = {("arquiver", None, "_enumerate"): "arquiver.enumerate",
           ("arquiver", "_IsoIndex", "find"): "arquiver.iso_find",
           ("replab", "Resolution", "extend_to"): "replab.extend_to"}

# callables whose successful results are counted but which get no span of
# their own: their time stays with the caller
OUTCOME_ONLY = {("replab", None, "_try_split"): "replab.decompose.split"}


def _found(result):
    return result is not None


# span name -> test of a successful result, for the spans whose outcomes
# are counted
OUTCOME = {"replab.is_isomorphic": bool, "arquiver.iso_find": _found,
           "replab.decompose.split": _found}


class Tracer:
    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.span_name = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("i")
        self.span_item = array.array("i")
        self.stack = [-1]
        self.item = -1
        self.active = False
        self.outcomes = {}      # name -> [calls, successful results]
        self._patched = []      # (owner, attribute, original)

    # -- wrappers --------------------------------------------------------

    def _name_id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _span_wrapper(self, fn, name):
        nid = self._name_id(name)
        names, starts, ends = self.span_name, self.span_start, self.span_end
        parents, items, stack = self.span_parent, self.span_item, self.stack
        clock = time.perf_counter
        success = OUTCOME.get(name)
        counts = self.outcomes.setdefault(name, [0, 0]) if success else None
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            items.append(tracer.item)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if counts is not None:
                counts[0] += 1
                counts[1] += success(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _outcome_wrapper(self, fn, name):
        counts = self.outcomes.setdefault(name, [0, 0])
        success = OUTCOME[name]
        tracer = self

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.active:
                counts[0] += 1
                counts[1] += success(result)
            return result

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every traced callable and rebind each module-level name
        that refers to one, including ``from x import f`` copies."""
        modules = {m: importlib.import_module(f"arglue.{m}") for m in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and (layer, attr) not in SKIP):
                    wrapped[obj] = self._span_wrapper(obj, f"{layer}.{attr}")
        for (layer, cls, attr), name in {**PRIVATE, **OUTCOME_ONLY}.items():
            owner = modules[layer] if cls is None else getattr(
                modules[layer], cls)
            fn = getattr(owner, attr)
            if name in OUTCOME_ONLY.values():
                new = self._outcome_wrapper(fn, name)
            else:
                new = self._span_wrapper(fn, name)
            if cls is None:
                wrapped[fn] = new
            else:
                self._patch(owner, attr, new)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def span_count(self):
        return len(self.span_start)

    def aggregate(self):
        """{span name: [calls, self seconds]} plus, per span name, the
        number of direct child calls by child name."""
        n = len(self.span_start)
        child_time = [0.0] * n
        starts, ends, parents = self.span_start, self.span_end, \
            self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += ends[i] - starts[i]
        per_name = {name: [0, 0.0] for name in self.names}
        children = {}
        for i in range(n):
            name = self.names[self.span_name[i]]
            row = per_name[name]
            row[0] += 1
            row[1] += ends[i] - starts[i] - child_time[i]
            p = parents[i]
            if p >= 0:
                key = (self.names[self.span_name[p]], name)
                children[key] = children.get(key, 0) + 1
        return per_name, children

    def inclusive(self, names):
        """{name: seconds} over the outermost spans of each name, so that
        recursive calls are not counted twice."""
        ids = {self.name_ids[n]: n for n in names if n in self.name_ids}
        out = dict.fromkeys(names, 0.0)
        for i in range(len(self.span_start)):
            nid = self.span_name[i]
            if nid not in ids:
                continue
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != nid:
                p = self.span_parent[p]
            if p < 0:
                out[ids[nid]] += self.span_end[i] - self.span_start[i]
        return out

    def write(self, path, meta):
        """Spans as flat arrays in native byte order after a one-line JSON
        header naming the arrays, their lengths and the span names."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        cols = [("name", self.span_name), ("start", self.span_start),
                ("end", self.span_end), ("parent", self.span_parent),
                ("item", self.span_item)]
        header = {**meta, "names": self.names, "spans": self.span_count(),
                  "columns": [[c, a.typecode] for c, a in cols]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in cols:
                a.tofile(fh)
