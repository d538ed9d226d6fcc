"""Outside-in tracing of the ``repro`` layers for the benchmark's traced run.

The program itself carries no spans: :class:`Tracer` wraps the public
entry points of each layer from here.  A function is wrapped wherever
its name is bound, not only where it is defined — ``repro.core.protocol``
imports ``sign``/``verify`` by name and ``repro.core.gate`` imports them
as ``_sign``/``_verify_sig`` — by replacing every module attribute of
every loaded ``repro`` module that *is* the original function.  Methods
are wrapped on their class.  Wrapping happens before the deployment is
built, so callbacks bound during set-up also go through the wrappers;
the wrappers pass straight through until :meth:`Tracer.start`.

Each wrapped call made while tracing records a span (name, start, end,
parent span, operation id); the spans stay in memory and are written
out once the run ends.  A span's self time is its duration minus the
time its child spans cover.  Counts that the program keeps itself
(channel totals, simulator events, monitor, serving, gate and engine
metrics) are read at operation boundaries.
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List

#: (module, attribute or Class.method, span name, bytes-of-call)
TARGETS = (
    ("repro.crypto.sign", "sign", "crypto.sign", None),
    ("repro.crypto.sign", "verify", "crypto.verify", None),
    ("repro.crypto.cipher", "keystream_encrypt", "crypto.keystream", lambda a, k: len(a[2])),
    ("repro.crypto.cipher", "hybrid_encrypt", "crypto.hybrid", None),
    ("repro.crypto.cipher", "hybrid_decrypt", "crypto.hybrid", None),
    ("repro.crypto.cipher", "hmac_tag", "crypto.hmac", None),
    ("repro.core.protocol", "seal_request", "protocol.seal", None),
    ("repro.core.protocol", "seal_response", "protocol.seal", None),
    ("repro.core.protocol", "seal_notice", "protocol.seal", None),
    ("repro.core.protocol", "unseal_request", "protocol.unseal", None),
    ("repro.core.protocol", "unseal_response", "protocol.unseal", None),
    ("repro.core.protocol", "unseal_notice", "protocol.unseal", None),
    ("repro.dataplane.simulator", "Simulator.step", "sim.step", None),
    ("repro.core.inband", "InBandTester.start_round", "inband.round", None),
    ("repro.core.history", "SnapshotHistory.record", "history.record", None),
    ("repro.core.verifier", "LogicalVerifier.answer", "verifier.answer", None),
    ("repro.core.gate", "PreventiveGate._decide", "gate.decide", None),
    ("repro.core.engine", "VerificationEngine.compile", "engine.compile", None),
    ("repro.hsa.reachability", "ReachabilityAnalyzer.analyze", "hsa.propagate", None),
    ("repro.hsa.reachability", "ReachabilityAnalyzer.sources_reaching", "hsa.propagate", None),
    ("repro.hsa.reachability", "ReachabilityAnalyzer.detect_all_loops", "hsa.propagate", None),
    # header-space set algebra outside propagation: the federation's
    # per-ingress coverage ledger spends its time here
    ("repro.hsa.headerspace", "HeaderSpace.union", "hsa.headerspace", None),
    ("repro.hsa.headerspace", "HeaderSpace.subtract", "hsa.headerspace", None),
    ("repro.core.multiprovider", "RVaaSFederation.federated_query", "federation.query", None),
    ("repro.core.multiprovider", "_DomainContext.__init__", "federation.context_build", None),
)

#: per-layer metrics: (name, unit); all are printed on every workload
LAYER_METRICS = (
    ("crypto.sign.calls", "count"),
    ("crypto.sign.ms", "ms/op"),
    ("crypto.verify.calls", "count"),
    ("crypto.verify.ms", "ms/op"),
    ("crypto.keystream.bytes", "B"),
    ("crypto.keystream.ms", "ms/op"),
    ("crypto.hybrid.ms", "ms/op"),
    ("crypto.hmac.ms", "ms/op"),
    ("protocol.seal.ms", "ms/op"),
    ("protocol.unseal.ms", "ms/op"),
    ("openflow.messages_per_op", "count/op"),
    ("openflow.bytes_per_op", "B/op"),
    ("sim.events_per_op", "count/op"),
    ("sim.step.self_ms", "ms/op"),
    ("inband.auth_rounds", "count"),
    ("inband.challenges", "count"),
    ("serving.answer_cache_hit_ratio", "ratio"),
    ("serving.engine_calls", "count"),
    ("serving.batches", "count"),
    ("serving.queue_peak", "count"),
    ("monitor.active_polls", "count"),
    ("monitor.snapshots_built", "count"),
    ("monitor.snapshots_reused", "count"),
    ("history.record.calls", "count"),
    ("history.record.ms", "ms/op"),
    ("verifier.answer.calls", "count"),
    ("verifier.answer.ms", "ms/op"),
    ("gate.decide.ms", "ms/op"),
    ("gate.decisions", "count"),
    ("gate.allowed", "count"),
    ("gate.noop_ratio", "ratio"),
    ("gate.queue_peak", "count"),
    ("gate.deadline_misses", "count"),
    ("engine.compile.ms", "ms/op"),
    ("engine.network_tf_builds", "count"),
    ("engine.incremental_builds", "count"),
    ("engine.switch_tf_misses", "count"),
    ("engine.reach_hit_ratio", "ratio"),
    ("engine.matrix_repairs", "count"),
    ("engine.atom_fallback_ratio", "ratio"),
    ("hsa.propagate.calls", "count"),
    ("hsa.propagate.ms", "ms/op"),
    ("hsa.headerspace.calls", "count"),
    ("hsa.headerspace.ms", "ms/op"),
    ("hsa.kernel.rules_checked", "count"),
    ("hsa.kernel.rules_skipped", "count"),
    ("hsa.kernel.early_exits", "count"),
    ("hsa.kernel.index_hits", "count"),
    ("federation.messages_per_query", "count/op"),
    ("federation.domains_per_query", "count/op"),
    ("federation.context_builds", "count"),
    ("gc.gen2_collections", "count"),
    ("gc.pause_ms", "ms/op"),
    ("trace.spans", "count"),
    ("trace.window_ops", "count"),
    ("trace.off_thread_calls", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_pct", "%"),
)

#: metrics that need not repeat exactly between two traced runs at one
#: seed: wall times, garbage-collector activity and the tracing overhead
NOT_COUNTS = frozenset(
    name
    for name, unit in LAYER_METRICS
    if unit in ("ms", "ms/op", "%") or name.startswith("gc.")
)

_ENGINE_COUNTERS = (
    "network_tf_builds",
    "incremental_builds",
    "switch_tf_misses",
    "reach_hits",
    "reach_misses",
    "matrix_repairs",
    "atom_served_queries",
    "atom_fallbacks",
)
#: engine gauges: lifetime totals of the compiled artifacts live at the
#: time of reading (``ntf.kernel_stats()``), not monotone counters
_KERNEL_GAUGES = (
    "kernel_rules_checked",
    "kernel_rules_skipped",
    "kernel_early_exits",
    "kernel_index_hits",
)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.active = False
        #: operation id stamped on each span (the loop's step number)
        self.op = -1
        #: [name, start, end, parent index, op]; parent -1 = root
        self.spans: List[list] = []
        self._stack: List[list] = []  # [span index, child seconds]
        self._calls: Dict[str, int] = {}
        self._bytes: Dict[str, int] = {}
        self._self_seconds: Dict[str, float] = {}
        self._thread = threading.get_ident()
        self._gc_started = 0.0
        self.gc_pause_seconds = 0.0
        self.gc_gen2 = 0
        #: wrapped calls made off the loop's thread while tracing (not spanned)
        self.off_thread_calls = 0

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever it is bound in a loaded module."""
        for module_name, attr, span, size_of in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                setattr(owner, method, self._wrap(span, original, size_of))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original, size_of)
            for name, loaded in list(sys.modules.items()):
                if not name.startswith("repro") or loaded is None:
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)

    def _wrap(self, span: str, fn: Callable, size_of) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if threading.get_ident() != tracer._thread:
                # Work moved onto pool threads would vanish from the
                # self times; it is counted so that the report says so.
                tracer.off_thread_calls += 1
                return fn(*args, **kwargs)
            if size_of is not None:
                tracer._bytes[span] = tracer._bytes.get(span, 0) + size_of(args, kwargs)
            return tracer._record(span, fn, args, kwargs)

        return wrapper

    def _record(self, span: str, fn: Callable, args, kwargs):
        stack = self._stack
        index = len(self.spans)
        parent = stack[-1][0] if stack else -1
        record = [span, 0.0, 0.0, parent, self.op]
        self.spans.append(record)
        frame = [index, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            record[1] = start
            record[2] = end
            self._calls[span] = self._calls.get(span, 0) + 1
            self._self_seconds[span] = (
                self._self_seconds.get(span, 0.0) + duration - frame[1]
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin timing garbage collection; the loop sets :attr:`active`."""
        gc.callbacks.append(self._on_gc)

    def stop(self) -> None:
        self.active = False
        gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter() if self.active else 0.0
            return
        if not self._gc_started:
            return  # a collection during an untraced step
        self.gc_pause_seconds += time.perf_counter() - self._gc_started
        if info.get("generation") == 2:
            self.gc_gen2 += 1

    # ------------------------------------------------------------------
    # Counts
    # ------------------------------------------------------------------

    @staticmethod
    def program_counters(workload) -> Dict[str, float]:
        """The counters the program keeps itself, summed per layer."""
        counters: Dict[str, float] = {}
        bed = getattr(workload, "bed", None)
        if bed is not None:
            channels = bed.network.channels
            counters["channel.messages"] = sum(ch.total_messages() for ch in channels)
            counters["channel.bytes"] = sum(ch.total_bytes() for ch in channels)
            counters["sim.events"] = bed.network.sim.events_executed
            service = bed.service
            counters["inband.challenges"] = service.inband.challenges_sent
            monitor = service.monitor.metrics
            counters["monitor.active_polls"] = monitor.active_polls
            counters["monitor.snapshots_built"] = monitor.snapshots_built
            counters["monitor.snapshots_reused"] = monitor.snapshots_reused
            if service.scheduler is not None:
                serving = service.scheduler.metrics
                counters["serving.admitted"] = serving.admitted
                counters["serving.answer_cache_hits"] = serving.answer_cache_hits
                counters["serving.engine_calls"] = serving.engine_calls
                counters["serving.batches"] = serving.batches
            if bed.gate is not None:
                gate = bed.gate.metrics
                counters["gate.decisions"] = len(bed.gate.decisions)
                counters["gate.intercepted"] = gate.intercepted
                counters["gate.allowed"] = gate.allowed
                counters["gate.noop_allowed"] = gate.noop_allowed
                counters["gate.deadline_misses"] = gate.deadline_misses
        counters.update(getattr(workload, "counters", {}))
        for engine in workload.engines():
            metrics = engine.metrics
            for field in _ENGINE_COUNTERS:
                key = "engine." + field
                counters[key] = counters.get(key, 0) + getattr(metrics, field)
        return counters

    @staticmethod
    def program_gauges(workload) -> Dict[str, float]:
        """High-water marks and lifetime totals, read as they stand."""
        gauges: Dict[str, float] = {}
        bed = getattr(workload, "bed", None)
        if bed is not None:
            scheduler = bed.service.scheduler
            gauges["serving.queue_peak"] = (
                scheduler.metrics.queue_peak if scheduler is not None else 0
            )
            gauges["gate.queue_peak"] = (
                bed.gate.metrics.queue_peak if bed.gate is not None else 0
            )
        for engine in workload.engines():
            for field in _KERNEL_GAUGES:
                key = "hsa.kernel." + field[len("kernel_"):]
                gauges[key] = gauges.get(key, 0) + getattr(engine.metrics, field)
        return gauges

    def window_counts(self, workload, baseline: Dict[str, float]) -> Dict[str, float]:
        """Counts accumulated since ``baseline`` (taken at loop start)."""
        now = self.program_counters(workload)
        counts = {key: now[key] - baseline.get(key, 0) for key in now}
        counts.update(self.program_gauges(workload))
        for span, calls in self._calls.items():
            counts["calls." + span] = calls
        for span, size in self._bytes.items():
            counts["bytes." + span] = size
        counts["spans"] = len(self.spans)
        counts["off_thread_calls"] = self.off_thread_calls
        return counts

    def layer_metrics(
        self, window: Dict[str, float], ops: int, steps: int
    ) -> Dict[str, float]:
        """Every per-layer metric of :data:`LAYER_METRICS` but the overhead.

        Counts cover the count window, the first ``ops`` steps of the
        loop; ``ms/op`` values are self time per traced step over the
        ``steps`` traced steps of the run.
        """

        def calls(span: str) -> float:
            return window.get("calls." + span, 0)

        def ms(span: str) -> float:
            return self._self_seconds.get(span, 0.0) * 1e3 / steps

        def ratio(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        w = window.get
        queries = w("federation.queries", 0)
        reach = w("engine.reach_hits", 0) + w("engine.reach_misses", 0)
        atom = w("engine.atom_served_queries", 0) + w("engine.atom_fallbacks", 0)
        metrics = {
            "crypto.sign.calls": calls("crypto.sign"),
            "crypto.sign.ms": ms("crypto.sign"),
            "crypto.verify.calls": calls("crypto.verify"),
            "crypto.verify.ms": ms("crypto.verify"),
            "crypto.keystream.bytes": w("bytes.crypto.keystream", 0),
            "crypto.keystream.ms": ms("crypto.keystream"),
            "crypto.hybrid.ms": ms("crypto.hybrid"),
            "crypto.hmac.ms": ms("crypto.hmac"),
            "protocol.seal.ms": ms("protocol.seal"),
            "protocol.unseal.ms": ms("protocol.unseal"),
            "openflow.messages_per_op": w("channel.messages", 0) / ops,
            "openflow.bytes_per_op": w("channel.bytes", 0) / ops,
            "sim.events_per_op": w("sim.events", 0) / ops,
            "sim.step.self_ms": ms("sim.step"),
            "inband.auth_rounds": calls("inband.round"),
            "inband.challenges": w("inband.challenges", 0),
            "serving.answer_cache_hit_ratio": ratio(
                w("serving.answer_cache_hits", 0), w("serving.admitted", 0)
            ),
            "serving.engine_calls": w("serving.engine_calls", 0),
            "serving.batches": w("serving.batches", 0),
            "serving.queue_peak": w("serving.queue_peak", 0),
            "monitor.active_polls": w("monitor.active_polls", 0),
            "monitor.snapshots_built": w("monitor.snapshots_built", 0),
            "monitor.snapshots_reused": w("monitor.snapshots_reused", 0),
            "history.record.calls": calls("history.record"),
            "history.record.ms": ms("history.record"),
            "verifier.answer.calls": calls("verifier.answer"),
            "verifier.answer.ms": ms("verifier.answer"),
            "gate.decide.ms": ms("gate.decide"),
            "gate.decisions": w("gate.decisions", 0),
            "gate.allowed": w("gate.allowed", 0),
            "gate.noop_ratio": ratio(w("gate.noop_allowed", 0), w("gate.intercepted", 0)),
            "gate.queue_peak": w("gate.queue_peak", 0),
            "gate.deadline_misses": w("gate.deadline_misses", 0),
            "engine.compile.ms": ms("engine.compile"),
            "engine.network_tf_builds": w("engine.network_tf_builds", 0),
            "engine.incremental_builds": w("engine.incremental_builds", 0),
            "engine.switch_tf_misses": w("engine.switch_tf_misses", 0),
            "engine.reach_hit_ratio": ratio(w("engine.reach_hits", 0), reach),
            "engine.matrix_repairs": w("engine.matrix_repairs", 0),
            "engine.atom_fallback_ratio": ratio(w("engine.atom_fallbacks", 0), atom),
            "hsa.propagate.calls": calls("hsa.propagate"),
            "hsa.propagate.ms": ms("hsa.propagate"),
            "hsa.headerspace.calls": calls("hsa.headerspace"),
            "hsa.headerspace.ms": ms("hsa.headerspace"),
            "hsa.kernel.rules_checked": w("hsa.kernel.rules_checked", 0),
            "hsa.kernel.rules_skipped": w("hsa.kernel.rules_skipped", 0),
            "hsa.kernel.early_exits": w("hsa.kernel.early_exits", 0),
            "hsa.kernel.index_hits": w("hsa.kernel.index_hits", 0),
            "federation.messages_per_query": ratio(w("federation.messages", 0), queries),
            "federation.domains_per_query": ratio(w("federation.domains", 0), queries),
            "federation.context_builds": calls("federation.context_build"),
            "gc.gen2_collections": self.gc_gen2,
            "gc.pause_ms": self.gc_pause_seconds * 1e3 / steps,
            "trace.spans": w("spans", 0),
            "trace.window_ops": ops,
            "trace.off_thread_calls": w("off_thread_calls", 0),
        }
        return metrics

    def write_spans(self, path: Path) -> None:
        """Write every span as one JSON line: name, start/end µs, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            for name, start, end, parent, op in self.spans:
                out.write(
                    json.dumps(
                        [name, round((start - origin) * 1e6, 1),
                         round((end - origin) * 1e6, 1), parent, op]
                    )
                )
                out.write("\n")
