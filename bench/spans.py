"""Spans and counters recorded around the public functions of qcqec.

Nothing under src/ knows about this module: `install` replaces module and
class attributes with wrappers, so every caller that looks a function up
through its module (`wdist.enumerate_code(...)`, `famat.rank(...)`) goes
through a span.  Names bound with `from x import y` before installation keep
the original function and are not traced.

A span is aggregated by name as it closes: call count, inclusive time
(counted only when no enclosing span has the same name, so recursion is not
double counted), self time (duration minus the time covered by child spans)
and, per layer, inclusive time of the outermost span of that layer.
"""

import functools
import inspect
import statistics
import time
from collections import defaultdict

# enumerations of at most this many codewords are "small calls"
SMALL_CALL_CODEWORDS = 4 ** 8


class Tracer:
    """Aggregated nested spans, plus the per-call records some metrics need."""

    def __init__(self):
        self._stack = []  # open spans: [name, layer, child_seconds]
        self.calls = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_inclusive = defaultdict(float)
        self.toplevel = 0.0
        self.enumerations = []  # (Q, k, n, seconds) per completed call
        self.certificates_satisfied = 0

    def span(self, name, fn):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, layer, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, time.perf_counter() - t0)

        return traced

    def span_generator(self, name, fn):
        """Span over a generator's whole life, from first call to exhaustion."""
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, layer, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                yield from fn(*args, **kwargs)
            finally:
                self._close(frame, time.perf_counter() - t0)

        return traced

    def _close(self, frame, dt):
        stack = self._stack
        stack.pop()
        name, layer, child = frame
        self.calls[name] += 1
        self.self_time[name] += dt - child
        if all(f[0] != name for f in stack):
            self.inclusive[name] += dt
        if all(f[1] != layer for f in stack):
            self.layer_inclusive[layer] += dt
        if stack:
            stack[-1][2] += dt
        else:
            self.toplevel += dt

    def count_certificate(self, cert):
        self.certificates_satisfied += bool(cert.satisfied)

    def layer_calls(self, layer):
        return sum(c for name, c in self.calls.items() if name.startswith(layer + "."))

    def layer_self(self, layer):
        return sum(s for name, s in self.self_time.items() if name.startswith(layer + "."))

    def enumeration_metrics(self):
        out = {}
        enums = self.enumerations
        words = sum(Q ** k for Q, k, _, _ in enums)
        secs = sum(dt for *_, dt in enums)
        out["wdist.enumerate_calls"] = self.calls["wdist.enumerate_code"]
        out["wdist.codewords"] = words
        out["wdist.enumerate_s"] = self.inclusive["wdist.enumerate_code"]
        for Q in (4, 9, 81):
            w = sum(Q2 ** k for Q2, k, _, _ in enums if Q2 == Q)
            s = sum(dt for Q2, _, _, dt in enums if Q2 == Q)
            out["wdist.codewords_per_s.gf%d" % Q] = w / s if s else 0.0
        symbols = sum(Q ** k * n for Q, k, n, _ in enums)
        out["wdist.symbols_per_s"] = symbols / secs if secs else 0.0
        small = [dt for Q, k, _, dt in enums if Q ** k <= SMALL_CALL_CODEWORDS]
        out["wdist.small_call_ms_p50"] = 1e3 * statistics.median(small) if small else 0.0
        return out


def _public_functions(module):
    return [
        (name, obj) for name, obj in vars(module).items()
        if inspect.isfunction(obj) and not name.startswith("_")
        and obj.__module__ == module.__name__
    ]


def _then(fn, hook):
    """fn, then hook(result) once fn has returned."""

    @functools.wraps(fn)
    def call(*args, **kwargs):
        result = fn(*args, **kwargs)
        hook(result)
        return result

    return call


def install(tracer, observer):
    """Wrap the traced functions of every layer, for the rest of the process.

    `observer` (a checks.EnumeratorLog) is handed each code built or
    extended and each enumeration as it completes; it only keeps
    references, and the checks run after the operation, outside any span.
    """
    from qcqec import explorer, famat, polyring, qcc, quantum, wdist

    # famat: every public function and every public Mat method
    for name, fn in _public_functions(famat):
        setattr(famat, name, tracer.span("famat." + name, fn))
    for name, obj in list(vars(famat.Mat).items()):
        if name.startswith("_"):
            continue
        if isinstance(obj, classmethod):
            setattr(famat.Mat, name,
                    classmethod(tracer.span("famat.Mat." + name, obj.__func__)))
        elif inspect.isfunction(obj):
            setattr(famat.Mat, name, tracer.span("famat.Mat." + name, obj))

    # polyring: only the calls the metrics name; the rest are too small and
    # too frequent to wrap without the wrapper dominating
    for name in ("factor_xn_minus_1", "poly_gcd"):
        setattr(polyring, name, tracer.span("polyring." + name, getattr(polyring, name)))

    for name, fn in _public_functions(quantum):
        setattr(quantum, name, tracer.span("quantum." + name, fn))

    qcc.build = _then(tracer.span("qcc.build", qcc.build), observer.built)
    qcc.extend_one = _then(tracer.span("qcc.extend_one", qcc.extend_one), observer.extended)
    qcc.extend_two = _then(tracer.span("qcc.extend_two", qcc.extend_two), observer.extended)
    qcc.entanglement_certificate = _then(
        tracer.span("qcc.entanglement_certificate", qcc.entanglement_certificate),
        tracer.count_certificate)
    qcc.find_extension_vector = tracer.span(
        "qcc.find_extension_vector", qcc.find_extension_vector)

    enumerate_code = wdist.enumerate_code

    def enumerate_timed(g, *args, **kwargs):
        t0 = time.perf_counter()
        enum = enumerate_code(g, *args, **kwargs)
        tracer.enumerations.append(
            (g.field.Q, g.nrows, g.ncols, time.perf_counter() - t0))
        observer.enumerated(g, enum)
        return enum

    wdist.enumerate_code = tracer.span("wdist.enumerate_code", enumerate_timed)
    wdist.macwilliams = tracer.span("wdist.macwilliams", wdist.macwilliams)

    explorer.search = tracer.span_generator("explorer.search", explorer.search)
    explorer.report = tracer.span("explorer.report", explorer.report)


def install_counter(observer):
    """Tracing off: the only hook is a counter on enumerate_code, which reads
    no clock, so that codewords per second can be reported."""
    from qcqec import wdist

    enumerate_code = wdist.enumerate_code

    def counted(g, *args, **kwargs):
        enum = enumerate_code(g, *args, **kwargs)
        observer.counted(g)
        return enum

    wdist.enumerate_code = counted
