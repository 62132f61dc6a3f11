"""Timing and tracing around the benchmark's calls into the package.

Nothing inside ``sdhawkes`` is instrumented. ``StepRecorder`` times each
``ParticleSystem.step`` from the caller's side: the infer workloads call it
directly, and for workloads whose steps happen inside a package function
(``location_prediction_protocol``, ``SmcPredictor.update``) it is installed as
a wrapper on the class for the duration of the job and removed afterwards.

In a traced run a ``Tracer`` keeps every span in memory until the run ends:
span id, parent span id, name, start and end (``perf_counter_ns``), all under
one run id. Counts are attached to the span at whose boundary they were
taken. The hot loop carries only the per-post span; the copy-on-write and
pattern counts are taken outside it.
"""

from __future__ import annotations

import copy
import math
import time
from contextlib import contextmanager, nullcontext

from sdhawkes.smc import ParticleSystem

_STEP = ParticleSystem.step
_PREDICTIVE = ParticleSystem.predictive_logdensity
_MAP = ParticleSystem.map_estimate


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (id, parent, name, start_ns, end_ns); tuples of atoms, which the
        # cyclic garbage collector stops tracking, so long traces stay cheap
        self.spans: list[tuple] = []
        self.counts: list[tuple[int | None, str, float]] = []
        self._stack: list[int | None] = [None]

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append((sid, self._stack[-1], name, time.perf_counter_ns(), None))
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            self.end(sid, time.perf_counter_ns())

    def record(self, name: str, start_ns: int, end_ns: int,
               parent: int | None = None) -> int:
        """Add a finished leaf span under ``parent`` (default: the open span)."""
        sid = len(self.spans)
        self.spans.append((sid, self._stack[-1] if parent is None else parent,
                           name, start_ns, end_ns))
        return sid

    def end(self, sid: int, end_ns: int) -> None:
        """Set (or move) the end of span ``sid``."""
        self.spans[sid] = self.spans[sid][:4] + (end_ns,)

    def count(self, name: str, value: float, span: int | None = None) -> None:
        self.counts.append((self._stack[-1] if span is None else span, name, value))

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self time (self = own duration
        minus the time covered by child spans, which never overlap).
        Spans still open are left out."""
        closed = [s for s in self.spans if s[4] is not None]
        child_ns = [0] * len(self.spans)
        for _sid, parent, _name, start, end in closed:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, dict] = {}
        for sid, _parent, name, start, end in closed:
            row = out.setdefault(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += (end - start) / 1e6
            row["self_ms"] += (end - start - child_ns[sid]) / 1e6
        for row in out.values():
            row["mean_us"] = row["total_ms"] * 1e3 / row["calls"]
        return out

    def count_totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for _sid, name, value in self.counts:
            out[name] = out.get(name, 0.0) + value
        return out

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "span_fields": ["id", "parent", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "count_fields": ["span", "name", "value"],
            "counts": [list(c) for c in self.counts],
        }


def span_maker(tracer: Tracer | None):
    """``tracer.span``, or a maker of empty spans when the run is untraced."""
    return tracer.span if tracer is not None else (lambda _name: nullcontext())


class Snapshot:
    """A frozen copy of a system just before it stepped ``post``.

    Pattern statistics are copied; assignment histories and archives are
    immutable cons chains and are shared (too deep for ``copy.deepcopy``).
    """

    __slots__ = ("system", "post", "observe")

    def __init__(self, system: ParticleSystem, post, observe: bool):
        frozen = copy.copy(system)
        frozen.particles = []
        for particle in system.particles:
            twin = particle.clone()
            twin.patterns = {label: stats.copy(owner=twin.token)
                             for label, stats in particle.patterns.items()}
            frozen.particles.append(twin)
        frozen.log_weights = system.log_weights.copy()
        frozen.weights = system.weights.copy()
        frozen.rngs = copy.deepcopy(system.rngs)
        frozen.resample_rng = copy.deepcopy(system.resample_rng)
        self.system = frozen
        self.post = post
        self.observe = observe


class StepRecorder:
    """Service time of every post, plus failure counts and, when traced,
    spans, copy-on-write counts and snapshots for the layer replays.

    A post's service time is its ``step`` call plus any checkpoint write it
    triggers (added by the caller) plus any ``predictive_logdensity`` read
    made for it just before (the gof scan queries, then updates).
    """

    def __init__(self, tracer: Tracer | None = None, snapshot_at=()):
        self.tracer = tracer
        self.snapshot_at = set(snapshot_at)
        self.snapshots: list[Snapshot] = []
        self.snapshot_ns = 0
        self.service_ns: list[int] = []
        self.steps = 0
        self.nonfinite = 0
        self.last_span: int | None = None
        self._pending_ns = 0
        self.map_ns: list[int] = []
        self.last_map = None
        self.last_system: ParticleSystem | None = None

    def step(self, system: ParticleSystem, post, observe_location: bool = True):
        tracer = self.tracer
        if tracer is None:
            t0 = time.perf_counter_ns()
            _STEP(system, post, observe_location)
            t1 = time.perf_counter_ns()
        else:
            if self.steps in self.snapshot_at:
                s0 = time.perf_counter_ns()
                self.snapshots.append(Snapshot(system, post, observe_location))
                self.snapshot_ns += time.perf_counter_ns() - s0
            particles = system.particles
            before = [(p, dict(p.patterns)) for p in particles]
            pairs = sum(len(p.patterns) for p in particles)
            n_res = system.n_resamples
            t0 = time.perf_counter_ns()
            _STEP(system, post, observe_location)
            t1 = time.perf_counter_ns()
            sid = tracer.record("smc.step", t0, t1)
            self.last_span = sid
            # copy-on-write copies only the pattern a particle attaches the
            # post to, so comparing that label's identity finds every copy
            copies = items = 0
            for particle, old in before:
                label = particle.assign_tail[0]
                cur = particle.patterns.get(label)
                if cur is not None and old.get(label, cur) is not cur:
                    copies += 1
                    items += (len(cur.event_times) + len(cur.word_counts)
                              + 3 * len(cur.decay))
            tracer.count("pairs", pairs, sid)
            tracer.count("cow_copies", copies, sid)
            tracer.count("cow_items", items, sid)
            tracer.count("resamples", system.n_resamples - n_res, sid)
        self.service_ns.append(t1 - t0 + self._pending_ns)
        self._pending_ns = 0
        self.steps += 1
        self.last_system = system
        if not all(math.isfinite(v) for v in system.log_weights):
            self.nonfinite += 1
        return system

    def add_to_last(self, ns: int) -> None:
        """Charge extra work (a checkpoint write) to the last post."""
        self.service_ns[-1] += ns

    def predictive(self, system: ParticleSystem, post, kind: str) -> float:
        t0 = time.perf_counter_ns()
        value = _PREDICTIVE(system, post, kind)
        t1 = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.record("smc.predictive", t0, t1)
        self._pending_ns += t1 - t0
        return value

    def map_estimate(self, system: ParticleSystem):
        t0 = time.perf_counter_ns()
        result = _MAP(system)
        t1 = time.perf_counter_ns()
        if self.tracer is not None:
            self.tracer.record("smc.map_estimate", t0, t1)
        self.map_ns.append(t1 - t0)
        self.last_map = result
        return result

    @contextmanager
    def installed(self):
        """Route ``ParticleSystem`` calls made inside package functions
        through this recorder; the original methods are restored on exit."""
        recorder = self

        def step(system, post, observe_location=True):
            return recorder.step(system, post, observe_location)

        def predictive(system, post, kind):
            return recorder.predictive(system, post, kind)

        def map_estimate(system):
            return recorder.map_estimate(system)

        ParticleSystem.step = step
        ParticleSystem.predictive_logdensity = predictive
        ParticleSystem.map_estimate = map_estimate
        try:
            yield self
        finally:
            ParticleSystem.step = _STEP
            ParticleSystem.predictive_logdensity = _PREDICTIVE
            ParticleSystem.map_estimate = _MAP
