"""Span tracing of the alignsim layers, from outside the library.

``Tracer.install`` wraps every public function of each layer module and
rebinds the wrapper under every name that refers to the function in any
loaded ``alignsim`` module namespace, so calls made through
``from .linalg import ...`` bindings are traced as well; a function that
imports a name inside its body (``harness._blind_trial`` does so for
``is_subspace``) reads the rebound module attribute at call time.  It
also wraps ``numpy.linalg.svd`` to count factorizations.  ``restore``
puts every original object back and checks that it did.

Spans are recorded only between ``begin_op`` and ``end_op``, so the
benchmark's own correctness checks, which call ``reconstruct``, leave no
spans.  Spans stay in memory until the run ends, packed into one integer
array: a list object per span would be tracked by the garbage collector,
whose full collections then walk every span kept so far and slow the
traced run down more the longer it runs.
"""

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("channel", "blind", "shared", "fastfading", "decomposition",
          "rational", "linalg", "harness")

# fields of a span record
NAME, START, END, PARENT, OP = range(5)


def layer_of(name):
    return name.split(".", 1)[0]


def self_times(spans):
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest properly, so the children of a span cover
    disjoint intervals and their durations add up.
    """
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def profile(spans, weights=None):
    """Per-layer entry counts and self time, per-function self time, and
    the number of spans of each function.

    A call counts as an entry into a layer when the caller is outside that
    layer (another layer, or the benchmark itself); calls a layer makes to
    its own functions count toward its self time but not its calls.  Self
    times are multiplied by ``weights[op]`` when weights are given.
    """
    calls, layer_ns, function_ns, spans_by_name = (Counter(), Counter(),
                                                   Counter(), Counter())
    for span, own in zip(spans, self_times(spans)):
        if weights is not None:
            own *= weights[span[OP]]
        name = span[NAME]
        layer = layer_of(name)
        layer_ns[layer] += own
        function_ns[name] += own
        spans_by_name[name] += 1
        parent = span[PARENT]
        if parent < 0 or layer_of(spans[parent][NAME]) != layer:
            calls[layer] += 1
    return calls, layer_ns, function_ns, spans_by_name


class Tracer:
    def __init__(self):
        self._names = []       # span name by name id
        self._packed = array("q")  # name id, start_ns, end_ns, parent, op
        self.svd_calls = 0
        self.svd_elems = 0     # computed sum of m*n over factored matrices
        self._stack = []
        self._active = False
        self._op = -1
        self._saved = []       # (namespace object, attribute, original)

    def begin_op(self, op):
        self._op = op
        self._active = True

    def end_op(self):
        self._active = False

    @property
    def spans(self):
        """Recorded spans as (name, start_ns, end_ns, parent, op) tuples."""
        p = self._packed
        return [(self._names[p[i]], p[i + 1], p[i + 2], p[i + 3], p[i + 4])
                for i in range(0, len(p), 5)]

    def _span(self, name, fn):
        packed, stack = self._packed, self._stack
        name_id = len(self._names)
        self._names.append(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            at = len(packed)
            packed.extend((name_id, 0, 0, stack[-1] if stack else -1,
                           self._op))
            stack.append(at // 5)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                packed[at + START] = start
                packed[at + END] = end
        return traced

    def _count_svd(self, fn):
        @functools.wraps(fn)
        def svd(a, *args, **kwargs):
            if self._active:
                rows, cols = np.shape(a)[-2:]
                self.svd_calls += 1
                self.svd_elems += rows * cols
            return fn(a, *args, **kwargs)
        return svd

    def _rebind(self, namespace, attribute, replacement):
        self._saved.append((namespace, attribute,
                            getattr(namespace, attribute)))
        setattr(namespace, attribute, replacement)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "alignsim" or name.startswith("alignsim.")]
        for layer in LAYERS:
            module = sys.modules[f"alignsim.{layer}"]
            for public in module.__all__:
                fn = getattr(module, public)
                if not (inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    continue
                wrapper = self._span(f"{layer}.{public}", fn)
                for namespace in modules:
                    for attribute, value in list(vars(namespace).items()):
                        if value is fn:
                            self._rebind(namespace, attribute, wrapper)
        self._rebind(np.linalg, "svd", self._count_svd(np.linalg.svd))

    def restore(self):
        """Put back every rebound name; raise if any is still wrapped."""
        saved, self._saved = self._saved, []
        for namespace, attribute, original in reversed(saved):
            setattr(namespace, attribute, original)
        left = [f"{getattr(ns, '__name__', ns)}.{attr}"
                for ns, attr, original in saved
                if getattr(ns, attr) is not original]
        if left:
            raise RuntimeError(f"names still traced: {', '.join(left)}")
        return len(saved)
