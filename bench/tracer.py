"""In-memory span recorder that wraps gliomics functions from outside.

A wrapper is installed by rebinding the name a caller looks up, for example
``classify.train_ova`` or ``registration.map_coordinates``, and removed by
restoring the original object.  Every call through a wrapper records one
span: name, start, end, the index of the enclosing span and the operation id
the benchmark loop set.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index, op id]
        self.counts = Counter()  # diagnostics recorded by observers
        self.raised = Counter()  # span name -> calls that raised
        self.op = None
        self._stack = []
        self._installed = []     # (namespace, attribute, original)

    @property
    def active(self) -> bool:
        return bool(self._installed)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def operation(self, op_id):
        """Tag everything inside with ``op_id``; a root span when active."""
        self.op = op_id
        index = self._open("bench.op") if self.active else None
        try:
            yield
        finally:
            if index is not None:
                self._close(index)
            self.op = None

    def wrap(self, owner, attr: str, name, observe=None, extra=None,
             where=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name, or a function of the call's arguments
        that returns it.  ``observe(tracer, args, kwargs, result)`` runs
        after a call that returned.  ``extra`` names a boolean keyword of
        the wrapped function that makes it also return diagnostics: the
        wrapper always sets it, so ``observe`` sees ``(value, diagnostics)``,
        and hands the caller only what the caller asked for.  The name is
        rebound in ``where`` (namespaces), by default in every loaded
        gliomics module that holds the same object.
        """
        original = getattr(owner, attr)
        signature = inspect.signature(original) if extra else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if extra is not None:
                bound = signature.bind(*args, **kwargs)
                wanted = bound.arguments.get(extra, False)
                bound.arguments[extra] = True
                args, kwargs = bound.args, bound.kwargs
            span = name(*args, **kwargs) if callable(name) else name
            index = tracer._open(span)
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer.raised[span] += 1
                raise
            finally:
                tracer._close(index)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            if extra is not None and not wanted:
                return result[0]
            return result

        if where is None:
            where = [module for key, module in sorted(sys.modules.items())
                     if (key == "gliomics" or key.startswith("gliomics."))
                     and getattr(module, attr, None) is original]
        for namespace in where:
            self._installed.append((namespace, attr,
                                    getattr(namespace, attr)))
            setattr(namespace, attr, wrapper)

    def uninstall(self):
        while self._installed:
            namespace, attr, original = self._installed.pop()
            setattr(namespace, attr, original)


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) pairs."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another or run past their parent; only the
    union of their intervals inside the parent's interval is subtracted.
    """
    children = {}
    for index, span in enumerate(spans):
        if span[3] != NO_PARENT:
            children.setdefault(span[3], []).append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        inner = [(max(start, spans[c][1]), min(end, spans[c][2]))
                 for c in children.get(index, ())]
        out.append(end - start - union_length(inner))
    return out
