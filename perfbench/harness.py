"""Measurement plumbing shared by the workloads: windows, quantiles, tracing.

A :class:`Window` is one measured stretch of a workload: per-op latencies,
the busy time that throughput is computed over, and failures counted per
class as ``"<code>:<reason>"`` (the shape ``benchmarks/bench_load.py``
uses).  Timeouts and failed correctness checks are failures too.

The host this benchmark was tuned on runs the same CPU-bound code up to
1.7× slower at some times than at others (shared cores), which swamps
any change worth detecting.  So CPU-bound windows also sample a
:class:`Pace`: the thread CPU time of a fixed reference computation,
interleaved with the ops.  Reported times are scaled to the reference's
nominal speed (raw times are printed alongside), so a change to the
program moves them and a change in the host's speed mostly does not.

A :class:`Tracer` measures layers from outside the program: it wraps
public functions by patching module and class attributes (including the
``from ... import`` rebindings in consuming modules) and records one span
per call with its name, start, end, parent span and op id.  Spans stay in
memory; :meth:`Tracer.layer_totals` reduces them to inclusive and self
time per layer.
"""

from __future__ import annotations

import ast
import gc
import itertools
import math
import signal
import threading
import time

from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np


def quantile(sorted_xs, q: float) -> float:
    """Nearest-rank quantile of an ascending sequence (``nan`` when empty)."""
    if not len(sorted_xs):
        return float("nan")
    rank = max(1, math.ceil(q * len(sorted_xs)))
    return float(sorted_xs[min(rank, len(sorted_xs)) - 1])


def envelope_error_class(envelope: dict) -> "str | None":
    """``"<code>:<reason>"`` for a non-ok envelope, ``None`` for an ok one."""
    if envelope.get("status") == "ok":
        return None
    reason = (envelope.get("error") or {}).get("reason", "unknown")
    return f"{envelope.get('code')}:{reason}"


_REFERENCE_SOURCE = """
def merge(a, b, *, key=None):
    out = dict(a)
    for k, v in b.items():
        if k in out and key is not None:
            out[k] = key(out[k], v)
        else:
            out[k] = v
    return [x for x in sorted(out) if x]
"""


def _reference_work() -> int:
    """The pace reference: dict and string churn plus a small AST walk.

    Both fit in the core's private caches, so the reference measures how
    fast this core runs interpreter code, not how cold its caches are.
    """
    table = {}
    for i in range(1500):
        table[i & 63] = (i, str(i))
    nodes = sum(1 for _ in ast.walk(ast.parse(_REFERENCE_SOURCE)))
    return len(table) + nodes


class Pace:
    """Host speed over time, sampled as the CPU time of a reference run.

    Between :meth:`start` and :meth:`stop` a ``SIGALRM`` interval timer
    runs :func:`_reference_work` every ``every_s`` on the main thread, so
    samples interleave with the ops however long each op is.  On the host
    this was tuned on, a core flips between a fast and a ~1.7x slower state
    every second or so, which puts the median of a window's latencies in
    one mode or the other; :meth:`factors_for` therefore scales each op by
    the speed measured around it, and :attr:`factor` (for totals) by the
    mean speed.  :attr:`stolen` is the wall time the samples took, for
    loops that subtract it from the op they interrupted.
    """

    REFERENCE_S = 0.0004  # nominal CPU time of one reference run
    NEIGHBOURS = 3  # fewest samples one op's speed is taken from

    def __init__(self, every_s: float = 0.05, clock=time.thread_time):
        self.every_s = every_s
        self.clock = clock
        self.times: "list[float]" = []
        self.samples: "list[float]" = []
        self.stolen = 0.0
        self._previous = None

    def _run(self, *_signal_args) -> None:
        w0 = time.perf_counter()
        # The reference must not pay for collecting the program's garbage.
        collecting = gc.isenabled()
        gc.disable()
        try:
            c0 = self.clock()
            _reference_work()
            self.samples.append(self.clock() - c0)
        finally:
            if collecting:
                gc.enable()
        self.times.append(w0)
        self.stolen += time.perf_counter() - w0

    def sample(self, n: int) -> None:
        for _ in range(n):
            self._run()

    def start(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @property
    def factor(self) -> float:
        """Scale for a total over the whole window (mean host speed)."""
        if not self.samples:
            return 1.0
        return self.REFERENCE_S * len(self.samples) / sum(self.samples)

    def factors_for(self, starts, durations) -> np.ndarray:
        """Per-op scale: the mean speed over each op.

        An op spanning at least :attr:`NEIGHBOURS` samples uses the samples
        taken while it ran; a shorter one the :attr:`NEIGHBOURS` samples
        nearest its midpoint.
        """
        n = self.NEIGHBOURS
        if len(self.samples) < n:
            return np.full(len(starts), self.factor)
        times = np.asarray(self.times)
        total = np.concatenate(([0.0], np.cumsum(self.samples)))
        starts = np.asarray(starts)
        ends = starts + np.asarray(durations)
        lo = np.searchsorted(times, starts)
        hi = np.searchsorted(times, ends)
        near = np.clip(np.searchsorted(times, (starts + ends) / 2) - n // 2,
                       0, len(times) - n)
        short = hi - lo < n
        lo = np.where(short, near, lo)
        hi = np.where(short, near + n, hi)
        return self.REFERENCE_S * (hi - lo) / (total[hi] - total[lo])


class _NoPace:
    """Stand-in for :class:`Pace` in a traced window: no samples taken."""

    stolen = 0.0

    def stop(self) -> None:
        pass


@dataclass
class Window:
    """One measured stretch of a workload."""

    latencies: "list[float]" = field(default_factory=list)  # seconds, per op
    #: ``time.perf_counter()`` when each op started (per-op pace lookup).
    stamps: "list[float]" = field(default_factory=list)
    busy_s: float = 0.0  # the time ops_per_s divides by
    attempted: int = 0
    errors: Counter = field(default_factory=Counter)
    #: Per-op time the unattributed residual is taken from (seconds):
    #: mean latency for one serial client, busy time / ops otherwise.
    e2e_per_op_s: float = 0.0
    #: Host speed during the window; ``None`` reports raw times (for a
    #: window whose latency is not this process's CPU time).
    pace: "Pace | None" = None
    #: Arrivals follow a schedule, so the rate is the offered one and is
    #: reported unscaled.
    open_loop: bool = False
    extra: dict = field(default_factory=dict)

    def start_pace(self, tracer, clock=time.thread_time) -> "Pace | _NoPace":
        """Sample host speed through an untraced window.

        A traced window is not scaled: its samples would land inside spans.
        """
        if tracer is not None:
            return _NoPace()
        self.pace = Pace(clock=clock).start()
        return self.pace

    @property
    def factor(self) -> float:
        """Scale from this host's mean speed during the window to the reference."""
        return self.pace.factor if self.pace is not None else 1.0

    @property
    def failed(self) -> int:
        return sum(self.errors.values())

    def fail(self, error_class: str, n: int = 1) -> None:
        self.errors[error_class] += n

    def summary(self) -> dict:
        """End-to-end figures at reference speed, plus the raw ones."""
        raw_lat = np.sort(np.asarray(self.latencies))
        lat = raw_lat
        if self.pace is not None:
            lat = np.sort(
                np.asarray(self.latencies)
                * self.pace.factors_for(self.stamps, self.latencies)
            )
        served = max(1, self.attempted - self.failed)
        raw_rate = served / self.busy_s if self.busy_s > 0 else 0.0
        return {
            "ops": self.attempted,
            "ops_per_s": raw_rate if self.open_loop else raw_rate / self.factor,
            "latency_p50_ms": quantile(lat, 0.50) * 1e3,
            "latency_p90_ms": quantile(lat, 0.90) * 1e3,
            "latency_p99_ms": quantile(lat, 0.99) * 1e3,
            "error_rate": self.failed / max(1, self.attempted),
            "pace_factor": self.factor,
            "raw_ops_per_s": raw_rate,
            "raw_latency_p50_ms": quantile(raw_lat, 0.50) * 1e3,
            "raw_latency_p90_ms": quantile(raw_lat, 0.90) * 1e3,
            "raw_latency_p99_ms": quantile(raw_lat, 0.99) * 1e3,
        }


class Tracer:
    """Wrap public functions and record one span per call.

    ``patch(owner, attr, layer)`` replaces ``owner.attr`` (a module
    attribute or a class attribute) with a wrapper; :meth:`restore` puts
    every original back.  Spans are tuples
    ``(span_id, layer, start_ns, end_ns, parent_id, op_id)``; the parent is
    the innermost wrapped call still open on the same thread, and the op id
    is whatever the driving thread set with :meth:`set_op` (``None`` for
    work a background thread does on behalf of many ops).
    """

    def __init__(self):
        self.spans: "list[tuple]" = []
        self.counts: Counter = Counter()
        self.sums: "defaultdict[str, float]" = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: "list[tuple[object, str, object]]" = []

    def set_op(self, op_id) -> None:
        self._local.op = op_id

    def patch(self, owner, attr: str, layer: str, *, on_call=None,
              on_return=None, span: bool = True) -> None:
        """Wrap ``owner.attr`` as a span of ``layer``.

        ``on_call(tracer, args, kwargs)`` and ``on_return(tracer, result)``
        let a layer record counts at the same boundary (batch sizes, seeds
        per call); they run outside the span's clock.  ``span=False`` keeps
        only those hooks, for calls that block idle (a worker waiting on
        its queue) and would otherwise count waiting as busy time.
        """
        raw = vars(owner)[attr]
        original = getattr(owner, attr)
        local = self._local
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            if not span:
                result = original(*args, **kwargs)
                if on_return is not None:
                    on_return(self, result)
                return result
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append(
                    (sid, layer, t0, t1, parent, getattr(local, "op", None))
                )
            if on_return is not None:
                on_return(self, result)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def layer_totals(self) -> "dict[str, dict]":
        """Per layer: ``calls``, inclusive ``incl_s`` and ``self_s``.

        A span's self time is its duration minus the time its child spans
        (on the same thread) cover.
        """
        child_ns: "defaultdict[int, int]" = defaultdict(int)
        for _sid, _layer, t0, t1, parent, _op in self.spans:
            if parent is not None:
                child_ns[parent] += t1 - t0
        out: "dict[str, dict]" = {}
        for sid, layer, t0, t1, _parent, _op in self.spans:
            cell = out.setdefault(layer, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            cell["calls"] += 1
            cell["incl_s"] += (t1 - t0) / 1e9
            cell["self_s"] += (t1 - t0 - child_ns[sid]) / 1e9
        return out
