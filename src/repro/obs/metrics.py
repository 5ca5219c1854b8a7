"""Counters and latency histograms, with zero dependencies.

Metric names are dotted strings (``cache.result.hit``,
``daemon.requests.status.0``); the full catalogue lives in
docs/internals.md section 8. Histograms use fixed upper-bound buckets
in seconds so two dumps are always structurally comparable.

:data:`GLOBAL_METRICS` is the shared process-lifetime registry. The
engine, cache, daemon and difftest all default to it, which
is what lets the daemon's ``metrics`` request verb report totals across
every request it has served.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager

#: Histogram upper bounds in seconds; the last bucket is unbounded.
LATENCY_BUCKETS_S = (0.001, 0.005, 0.025, 0.1, 0.5, 2.0, 10.0)


class Histogram:
    """Fixed-bucket latency histogram (count, sum, per-bucket tallies)."""

    __slots__ = ("count", "sum_s", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.sum_s = 0.0
        self.buckets = [0] * (len(LATENCY_BUCKETS_S) + 1)

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.sum_s += seconds
        for i, bound in enumerate(LATENCY_BUCKETS_S):
            if seconds <= bound:
                self.buckets[i] += 1
                return
        self.buckets[-1] += 1

    def to_dict(self) -> dict:
        labels = [f"<={b}" for b in LATENCY_BUCKETS_S] + ["+inf"]
        return {
            "count": self.count,
            "sum_s": round(self.sum_s, 6),
            "buckets": dict(zip(labels, self.buckets)),
        }

    def percentile(self, q: float) -> float:
        """Estimate the *q*-quantile (``0 < q <= 1``) in seconds.

        Linear interpolation inside the containing bucket; observations
        in the unbounded last bucket are reported as its lower bound (an
        underestimate, but a stable one). Returns 0.0 when empty.
        """
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        lower = 0.0
        for i, bound in enumerate(LATENCY_BUCKETS_S):
            in_bucket = self.buckets[i]
            if seen + in_bucket >= rank:
                if in_bucket == 0:
                    return bound
                fraction = (rank - seen) / in_bucket
                return lower + (bound - lower) * fraction
            seen += in_bucket
            lower = bound
        return LATENCY_BUCKETS_S[-1]


class MetricsRegistry:
    """Named counters, gauges + histograms; safe to use before/without a
    dump, and safe to update from the checking service's worker threads
    (every mutation holds one short registry lock)."""

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, float] = {}
        self._lock = threading.Lock()

    # -- counters -----------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def count(self, name: str) -> int:
        return self._counters.get(name, 0)

    # -- gauges -------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Record a point-in-time level (queue depth, inflight count).

        Unlike counters, a gauge can go down; a dump shows the most
        recent value.
        """
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str) -> float:
        return self._gauges.get(name, 0)

    # -- histograms ---------------------------------------------------------

    def observe(self, name: str, seconds: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.observe(seconds)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    @contextmanager
    def timer(self, name: str):
        """``with metrics.timer("x"): ...`` observes the block's wall
        time into histogram *x* — including when the block raises, so
        failed operations still show up in the latency picture."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - t0)

    # -- dumping ------------------------------------------------------------

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "counters": dict(sorted(self._counters.items())),
                "gauges": dict(sorted(self._gauges.items())),
                "histograms": {
                    name: hist.to_dict()
                    for name, hist in sorted(self._histograms.items())
                },
            }

    def dump_json(self, path: str) -> None:
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._gauges.clear()


#: The process-lifetime registry every subsystem defaults to.
GLOBAL_METRICS = MetricsRegistry()
