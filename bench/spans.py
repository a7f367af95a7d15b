"""In-memory spans around calls into the library's modules.

The library itself carries no tracing.  For a traced run the benchmark
replaces the names through which one module calls another (for example
``qsemicat.morita.build_RA``) with wrappers that record a span, runs the
same op code as the untraced run, and restores the names afterwards.
"""

import time

perf = time.perf_counter


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "children")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.children = 0.0
        self.start = self.end = 0.0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.children


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer, span):
        self.tracer = tracer
        self.span = span

    def __enter__(self):
        self.tracer._stack.append(self.span)
        self.span.start = perf()
        return self.span

    def __exit__(self, *exc):
        span = self.span
        span.end = perf()
        self.tracer._stack.pop()
        if span.parent is not None:
            span.parent.children += span.duration
        return False


class Tracer:
    """Records spans with name, layer, start, end and parent; keeps them until the run ends."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._deferred = []

    def span(self, name, layer):
        parent = self._stack[-1] if self._stack else None
        s = Span(name, layer, parent)
        self.spans.append(s)
        return _Open(self, s)

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def defer(self, fn):
        """Run ``fn`` after the current op's spans close, so its cost is not traced."""
        self._deferred.append(fn)

    def flush(self):
        pending, self._deferred = self._deferred, []
        for fn in pending:
            fn()


class _Null:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _Null()


class NullTracer:
    """The untraced run: spans cost one method call and record nothing."""

    def span(self, name, layer):
        return _NULL

    def defer(self, fn):
        pass


def wrap(tracer, fn, name, layer, hook=None):
    """A stand-in for ``fn`` that records a span; ``hook(args, result)`` is deferred."""

    def traced(*args, **kwargs):
        with tracer.span(name, layer):
            result = fn(*args, **kwargs)
        if hook is not None:
            tracer.defer(lambda: hook(tracer, args, result))
        return result

    return traced


class Patched:
    """Install wrappers on module attributes for the duration of a ``with`` block.

    ``targets`` are ``(module, attribute, span name, layer, hook)``; an
    attribute the library no longer has is skipped and listed in ``missing``.
    """

    def __init__(self, lib, tracer, targets):
        self.lib = lib
        self.tracer = tracer
        self.targets = targets
        self.saved = []
        self.missing = []

    def __enter__(self):
        for module, attr, name, layer, hook in self.targets:
            mod = getattr(self.lib, module)
            if not hasattr(mod, attr):
                self.missing.append(f"{module}.{attr}")
                continue
            original = getattr(mod, attr)
            self.saved.append((mod, attr, original))
            setattr(mod, attr, wrap(self.tracer, original, name, layer, hook))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self.saved):
            setattr(mod, attr, original)
        self.saved = []
        return False


def nesting_ok(spans):
    """Every child span lies inside its parent's interval."""
    return all(
        s.parent is None or (s.parent.start <= s.start and s.end <= s.parent.end) for s in spans
    )
