"""Per-layer tracing by wrapping the public functions of each `pathidem` module.

A layer is a module of the package. Every public function and public method
of a class defined in a layer is replaced by a wrapper, in the defining
module and in every module that imported the same object by value (for
example `oracle` binds `gamma` from `reps`), so no call escapes through a
stale binding. A wrapper always counts its call; when the innermost open
span belongs to another layer it also opens a span, so a span marks each
crossing of a layer boundary and names its parent. A layer's self time is
the time inside its spans minus the time inside their child spans, summed
online; the spans themselves are kept in memory and written out at the end.

Ring arithmetic is counted, never timed: it runs about ten million times a
pass, and timing each call would distort every other layer's self time.
Its time is part of the calling layer's self time.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

LAYERS = ("rings", "quivers", "linalg", "algebra", "classify", "reps", "oracle", "sweep", "cli")
ROOT = "bench"
RING_OPS = ("canon", "add", "sub", "neg", "mul", "is_zero", "is_unit", "inv")
# dunder methods that are public arithmetic of a layer
OPERATORS = ("__mul__", "__add__", "__sub__", "__neg__")
# spans beyond this many are counted in self time but not kept
MAX_KEPT_SPANS = 1_000_000
# functions whose result lengths are summed, and whose true results are counted
SIZED = ("oracle.enumerate_submodules",)
TRUTHY = ("reps.in_category_e", "cli.main")


class Tracer:
    def __init__(self):
        self.layer_names = (ROOT,) + LAYERS
        self.counts: dict[str, int] = {}
        self.true_counts: dict[str, int] = {}
        self.items: dict[str, int] = {}
        self.self_ns = [0] * len(self.layer_names)
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per kept span: id, parent id, name index, start, end (ns)
        self.kept = tuple(array("q") for _ in range(5))
        self.spans_total = 0
        # open spans: [layer index, span id, child ns]
        self._stack = [[-1, -1, 0]]
        self._restore: list[tuple[object, str, object]] = []

    # ---- spans ----

    def _name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _open(self, layer: int):
        frame = [layer, self.spans_total, 0]
        self.spans_total += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame, name_idx: int, start: int, end: int) -> None:
        self._stack.pop()
        dur = end - start
        self.self_ns[frame[0]] += dur - frame[2]
        parent = self._stack[-1]
        parent[2] += dur
        if frame[1] < MAX_KEPT_SPANS:
            for col, x in zip(self.kept, (frame[1], parent[1], name_idx, start, end)):
                col.append(x)

    @contextmanager
    def case(self, kind: str):
        """Root span around one benchmark case."""
        name_idx = self._name_index(f"{ROOT}.{kind}")
        frame = self._open(0)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(frame, name_idx, start, time.perf_counter_ns())

    # ---- wrappers ----

    def _counter(self, key: str) -> None:
        self.counts.setdefault(key, 0)

    def _count_only(self, fn, key: str):
        counts = self.counts
        self._counter(key)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _spanned(self, fn, layer: int, key: str, truthy: bool = False):
        counts, true_counts, stack = self.counts, self.true_counts, self._stack
        self._counter(key)
        if truthy:
            true_counts[key] = 0
        name_idx = self._name_index(key)
        clock, open_, close = time.perf_counter_ns, self._open, self._close

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = open_(layer)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    close(frame, name_idx, start, clock())
            if truthy and result:
                true_counts[key] += 1
            return result

        return wrapper

    def _spanned_generator(self, fn, layer: int, key: str):
        """Times each next() of the generator, counting items as calls."""
        counts, stack = self.counts, self._stack
        self._counter(key)
        name_idx = self._name_index(key)
        clock, open_, close = time.perf_counter_ns, self._open, self._close

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if stack[-1][0] == layer:
                    item = next(it, StopIteration)
                else:
                    frame = open_(layer)
                    start = clock()
                    try:
                        item = next(it, StopIteration)
                    finally:
                        close(frame, name_idx, start, clock())
                if item is StopIteration:
                    return
                counts[key] += 1
                yield item

        return wrapper

    def _sized(self, fn, key: str):
        """Also sums the lengths of the results."""
        items = self.items
        items[key] = 0

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            items[key] += len(result)
            return result

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer. Counter keys read `<layer>.<name>@<binding>`,
        with binding `*` for methods."""
        modules = {name: importlib.import_module(f"pathidem.{name}") for name in LAYERS}
        originals: dict[int, tuple[str, int, object]] = {}
        for layer_idx, (name, mod) in enumerate(modules.items(), start=1):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = (f"{name}.{attr}", layer_idx, obj)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._wrap_class(obj, name, layer_idx)
        # rebind module-level functions wherever they are bound, defining
        # module included, with one wrapper per binding module
        for binder in [m for n, m in sys.modules.items() if n.startswith("pathidem")]:
            bind = binder.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(binder).items()):
                if id(obj) not in originals or originals[id(obj)][2] is not obj:
                    continue
                qual, layer_idx, fn = originals[id(obj)]
                key = f"{qual}@{bind}"
                if inspect.isgeneratorfunction(fn):
                    wrapped = self._spanned_generator(fn, layer_idx, key)
                else:
                    wrapped = self._spanned(fn, layer_idx, key, truthy=qual in TRUTHY)
                if qual in SIZED:
                    wrapped = self._sized(wrapped, key)
                self._patch(binder, attr, wrapped)

    def _wrap_class(self, cls, layer: str, layer_idx: int) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            static = isinstance(member, staticmethod)
            fn = member.__func__ if static else member
            if not inspect.isfunction(fn):
                continue  # properties and cached properties stay unwrapped
            qual = f"{layer}.{cls.__name__}.{attr}"
            key = f"{qual}@*"
            if layer == "rings":
                if attr not in RING_OPS:
                    continue
                wrapped = self._count_only(fn, key)
            else:
                wrapped = self._spanned(fn, layer_idx, key, truthy=qual in TRUTHY)
                if qual in SIZED:
                    wrapped = self._sized(wrapped, key)
            self._patch(cls, attr, staticmethod(wrapped) if static else wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # ---- results ----

    @staticmethod
    def _sum(table: dict[str, int], qual: str, binding: str | None = None) -> int:
        return sum(
            n
            for key, n in table.items()
            if key.split("@")[0] == qual and (binding is None or key.endswith("@" + binding))
        )

    def total(self, qual: str, binding: str | None = None) -> int:
        """Calls to a qualified name over all bindings, or through one."""
        return self._sum(self.counts, qual, binding)

    def total_items(self, qual: str) -> int:
        return self._sum(self.items, qual)

    def total_true(self, qual: str) -> int:
        return self._sum(self.true_counts, qual)

    def layer_calls(self, layer: str) -> int:
        return sum(n for key, n in self.counts.items() if key.split(".")[0] == layer)

    def self_seconds(self, layer: str) -> float:
        return self.self_ns[self.layer_names.index(layer)] / 1e9

    def write_spans(self, path) -> None:
        """Tab-separated spans: id, parent id (-1 at the root), name, start
        and end in perf_counter nanoseconds."""
        ids, parents, names, starts, ends = self.kept
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for row in zip(ids, parents, names, starts, ends):
                out.write(f"{row[0]}\t{row[1]}\t{self.span_names[row[2]]}\t{row[3]}\t{row[4]}\n")
