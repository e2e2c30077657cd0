"""Span recorder for the traced benchmark runs.

Spans are recorded from the benchmark's side of each layer boundary:
:meth:`SpanRecorder.wrap` replaces one public callable (on an instance
or a class) with a timing shim, and :meth:`SpanRecorder.iterate` times
every ``next()`` on a frame iterator.  Nothing inside the program is
changed.

Each span is ``(layer, start_ns, end_ns, parent, request)``: *parent*
is the index of the enclosing span (``-1`` at the top) and *request*
groups a span with the request-level span it belongs to — the
outermost span below a top-level one (for example one
``Deployment.send`` together with the target, service and kernel
spans it contains).  Spans stay in memory; the slice writes them out
once its run is over.  An exhausted iterator's last probe leaves a
``None`` hole, so span indices (and parents) stay valid.

A layer's self time is the duration of its spans minus the part their
child spans cover (:func:`layer_self_ns`).
"""

import threading
import time

#: CLOCK_MONOTONIC is shared by every process on the host, so spans
#: written by a served subprocess line up with the client-side window
#: they are filtered against.
_clock = time.monotonic_ns


class SpanRecorder:
    """In-memory spans around calls into the program's layers."""

    def __init__(self):
        self.spans = []
        #: While False the shims pass calls straight through, so one
        #: process can alternate traced and untraced calls.
        self.active = True
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, layer):
        """Time every call to ``owner.attr`` as a *layer* span.

        Wraps nothing when *owner* has no such attribute, so a renamed
        entry point leaves its layer at zero instead of breaking the
        run."""
        original = getattr(owner, attr, None)
        if original is None:
            return

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            index = self.open(layer)
            try:
                return original(*args, **kwargs)
            finally:
                self.close(index)

        setattr(owner, attr, traced)

    def iterate(self, iterable, layer):
        """An iterator over *iterable* that times each ``next()`` as a
        span (a plain iterator while inactive)."""
        if not self.active:
            return iter(iterable)
        return self._timed(iter(iterable), layer)

    def _timed(self, iterator, layer):
        while True:
            index = self.open(layer)
            try:
                item = next(iterator)
            except StopIteration:
                self.spans[index] = None      # the exhausted probe
                self._stack().pop()
                return
            except BaseException:
                self.close(index)
                raise
            self.close(index)
            yield item

    def open(self, layer):
        stack = self._stack()
        index = len(self.spans)
        if not stack:
            parent, request = -1, index
        else:
            parent = stack[-1]
            request = index if len(stack) == 1 \
                else self.spans[parent][4]
        self.spans.append([layer, _clock(), 0, parent, request])
        stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = _clock()
        self._stack().pop()


def layer_self_ns(spans, start_ns=None, end_ns=None):
    """``{layer: self_ns}`` over the spans inside ``[start_ns,
    end_ns]`` (all spans when the window is open).

    Self time is a span's duration minus its direct children's, so
    nested spans of the same layer are never counted twice."""
    keep = []
    for index, span in enumerate(spans):
        if span is None:
            continue
        layer, start, end, parent, _ = span
        if start_ns is not None and start < start_ns:
            continue
        if end_ns is not None and end > end_ns:
            continue
        keep.append(index)
    child_ns = {}
    for index in keep:
        layer, start, end, parent, _ = spans[index]
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    totals = {}
    for index in keep:
        layer, start, end, _, _ = spans[index]
        own = (end - start) - child_ns.get(index, 0)
        totals[layer] = totals.get(layer, 0) + own
    return totals
