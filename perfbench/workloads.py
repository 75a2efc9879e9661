"""The three benchmark workloads.

Each workload builds its inputs from the seed alone through the public
data API (``WorkloadSpec``, ``generate_workload``, ``LayerTerms``,
``QuoteRequest``), runs its ops for a fixed number of seconds, checks
every op's output against a result computed once during set-up by an
independent path, and reports end-to-end metrics (untraced runs) or
per-layer metrics (traced runs).  See ``perfbench/NOTES.md`` for why
each workload exists and how big its inputs are against the caches.
"""

from __future__ import annotations

import asyncio
import math
import resource
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import astuple
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

import repro.fleet.worker as fleet_worker
import repro.pricing.realtime as pricing_realtime
from repro import (
    LayerTerms,
    MemoryStore,
    Portfolio,
    QuoteRequest,
    QuoteService,
    WorkloadSpec,
    aggregate_risk_analysis_reference,
    create_engine,
    generate_workload,
    ylt_digest,
)
from repro.fleet import (
    JobQueue,
    context_for_engine,
    gather_sweep,
    run_workers,
    submit_sweep,
)
from repro.lookup import clear_lookup_cache, get_lookup_cache
from repro.net import NetServer, RemoteJobQueue, RemoteStore, ServerThread
from repro.serve import Overloaded, QuoteFrontEnd
from repro.utils.retry import DeadlineExceeded
from repro.utils.timer import (
    ACTIVITY_FETCH,
    ACTIVITY_FINANCIAL,
    ACTIVITY_LAYER,
    ACTIVITY_LOOKUP,
    ActivityProfile,
)

from spans import SpanSummary, Tracer

# A closed-loop op slower than this counts as a missed deadline.
OP_DEADLINE_S = 10.0
# The paper's layer shape: 15 ELTs, each with losses for 1% of the
# catalog's events.
ELTS_PER_LAYER = 15
ELT_DENSITY = 0.01


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _spec(
    name: str, seed: int, n_trials: int, n_layers: int, catalog_size: int = 200_000
) -> WorkloadSpec:
    return WorkloadSpec(
        name=name,
        catalog_size=catalog_size,
        n_trials=n_trials,
        events_per_trial=100,
        n_elts=ELTS_PER_LAYER * n_layers,
        elts_per_layer=ELTS_PER_LAYER,
        losses_per_elt=int(catalog_size * ELT_DENSITY),
        n_layers=n_layers,
        seed=seed,
    )


# With no completed op the run has already failed; report 0, not a crash.
def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _per_second(units: float, seconds: List[float]) -> float:
    total = sum(seconds)
    return units * len(seconds) / total if total else 0.0


class Outcome:
    """What a run produced: op counts, end-to-end and per-layer metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        #: run-level checks that failed (exact counts, expectations)
        self.flags: List[str] = []
        self.end_to_end: Dict[str, float] = {}
        self.per_layer: Dict[str, float] = {}
        #: tails and sample counts: printed, never gated
        self.details: Dict[str, object] = {}

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)

    def flag(self, what: str) -> None:
        self.flags.append(what)

    def absorb(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors[: max(0, 5 - len(self.errors))])
        self.flags.extend(other.flags)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.flags


def _timed(outcome: Outcome, kind: str, fn: Callable, check: Callable):
    """Run and check one op: ``(latency in seconds, result)``, both None
    when the op raised."""
    started = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - an op error is a failed op
        outcome.record(False, f"{kind}: {exc!r}")
        return None, None
    elapsed = time.perf_counter() - started
    ok = elapsed <= OP_DEADLINE_S and check(result)
    outcome.record(ok, f"{kind}: check failed after {elapsed:.3f} s")
    return elapsed, result


def _counts_repeat(per_op: List[Dict[str, float]], outcome: Outcome) -> None:
    """Every traced op must report the same exact counts: every value
    that is not a time or a ratio."""
    exact = [
        {k: v for k, v in op.items() if not k.endswith(("_ms", "_ratio"))}
        for op in per_op
    ]
    for counts in exact[1:]:
        if counts != exact[0]:
            outcome.flag(f"exact counts differ between ops: {exact[0]} vs {counts}")


def _mean_per_op(per_op: List[Dict[str, float]]) -> Dict[str, float]:
    if not per_op:
        return {}
    return {key: statistics.fmean(op[key] for op in per_op) for key in per_op[0]}


def _overhead_pct(untraced: List[float], traced: List[float]) -> float:
    base = _median(untraced)
    return 100.0 * (_median(traced) - base) / base if base else 0.0


def _profile_ms(profile: ActivityProfile) -> Dict[str, float]:
    seconds = profile.seconds
    return {
        "core.fetch_ms": seconds.get(ACTIVITY_FETCH, 0.0) * 1e3,
        "core.lookup_ms": seconds.get(ACTIVITY_LOOKUP, 0.0) * 1e3,
        "core.financial_ms": seconds.get(ACTIVITY_FINANCIAL, 0.0) * 1e3,
        "core.layer_terms_ms": seconds.get(ACTIVITY_LAYER, 0.0) * 1e3,
    }


def _computed_kernel_counts(yet, portfolio) -> Dict[str, float]:
    """Lookups and gathered bytes of one full analysis, computed from
    the input shape (not measured): each occurrence reads its event id
    (4 bytes) once per layer and one float64 loss per ELT."""
    elts = sum(len(layer.elt_ids) for layer in portfolio.layers)
    lookups = yet.n_occurrences * elts
    id_bytes = yet.n_occurrences * 4 * len(portfolio.layers)
    return {"core.lookups": lookups, "core.gather_bytes": lookups * 8 + id_bytes}


# ----------------------------------------------------------------------
# paper-analysis
# ----------------------------------------------------------------------
class PaperAnalysis:
    """``Engine.run`` with the sequential engine on a paper-shaped input.

    Closed loop, one client: each cycle is one full analysis (the
    primary op) then one whole-analysis replay from a ``MemoryStore``.
    """

    name = "paper-analysis"
    # The engine's prefetch thread overlaps the kernel: keep both vCPUs.
    ONE_CPU = False
    ON_PATH = ("core.", "plan.plan_ms", "engines.", "lookup.", "trace.")
    REF_TRIALS = 64

    def __init__(self, seed: int, work_dir: Path, seconds: float) -> None:
        workload = generate_workload(
            _spec("perfbench-paper", seed, n_trials=20_000, n_layers=1), seed=seed
        )
        self.yet = workload.yet
        self.portfolio = workload.portfolio
        self.catalog_size = workload.catalog.n_events
        self.engine = create_engine("sequential")
        started = time.perf_counter()
        self.reference = aggregate_risk_analysis_reference(
            self.yet.slice_trials(0, self.REF_TRIALS), self.portfolio
        )
        #: seconds of set-up spent on the checker's reference, not timed
        self.check_s = time.perf_counter() - started
        self.digest: str | None = None
        self.replay_store = MemoryStore()
        self.warmup = Outcome()
        # Warm-up, untimed: builds the lookup tables, fixes the digest
        # every later op must reproduce, and stores the replay entry.
        self.warmup.record(self._check(self._analyse()), "warm-up analysis")
        self.warmup.record(self._check(self._replay()), "warm-up replay")

    def _analyse(self):
        return self.engine.run(self.yet, self.portfolio, self.catalog_size)

    def _replay(self):
        return self.engine.run(
            self.yet, self.portfolio, self.catalog_size, store=self.replay_store
        )

    def _check(self, result) -> bool:
        digest = ylt_digest(result.ylt)
        if self.digest is None:
            # The scalar reference sums in another order, so the slice
            # agrees to the repository's cross-engine tolerance; every
            # later op must then match the first bit for bit.
            if not result.ylt.slice_trials(0, self.REF_TRIALS).allclose(
                self.reference
            ):
                return False
            self.digest = digest
        return digest == self.digest

    def close(self) -> None:
        pass

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = self.warmup
        ops: List[float] = []
        traced_ops: List[float] = []
        replays: List[float] = []
        per_op: List[Dict[str, float]] = []
        trials = self.yet.n_trials
        deadline = time.perf_counter() + seconds
        cycle = 0
        while time.perf_counter() < deadline:
            if trace and cycle % 2 == 1:
                self._traced_op(out, traced_ops, per_op)
            else:
                latency, _ = _timed(out, "analysis", self._analyse, self._check)
                if latency is not None:
                    ops.append(latency)
                latency, _ = _timed(
                    out,
                    "replay",
                    self._replay,
                    lambda r: r.meta["replay"]["hit"] and self._check(r),
                )
                if latency is not None:
                    replays.append(latency)
            cycle += 1
        if not trace:
            out.end_to_end = {
                "op_p50_ms": _median(ops) * 1e3,
                "trials_per_s": _per_second(trials, ops),
                "replay_p50_ms": _median(replays) * 1e3,
            }
            out.details = {
                "op_p90_ms": _quantile(ops, 0.9) * 1e3,
                "op_samples": len(ops),
                "replay_p90_ms": _quantile(replays, 0.9) * 1e3,
                "replay_samples": len(replays),
            }
            return out
        if not per_op:
            return out
        _counts_repeat(per_op, out)
        layer = _mean_per_op(per_op)
        layer.update(_computed_kernel_counts(self.yet, self.portfolio))
        wall = statistics.fmean(traced_ops) * 1e3
        layer["trace.residual_pct"] = 100.0 * layer["engines.residual_ms"] / wall
        layer["trace.overhead_pct"] = _overhead_pct(ops, traced_ops)
        layer["trace.ops"] = len(traced_ops)
        out.per_layer = layer
        return out

    def _traced_op(self, out: Outcome, traced_ops: List[float], per_op) -> None:
        tracer = Tracer()
        tracer.wrap(self.engine, "plan_for", "plan.plan")
        cache = get_lookup_cache()
        before = cache.stats()
        try:
            latency, result = _timed(out, "traced analysis", self._analyse, self._check)
        finally:
            tracer.unwrap_all()
        after = cache.stats()
        if latency is None:
            return
        traced_ops.append(latency)
        spans = tracer.drain()
        core = _profile_ms(result.profile)
        residual = latency * 1e3 - spans.ms("plan.plan") - sum(core.values())
        per_op.append(
            {
                **core,
                "plan.plan_ms": spans.ms("plan.plan"),
                "engines.residual_ms": residual,
                "lookup.hits": after["hits"] - before["hits"],
                "lookup.misses": after["misses"] - before["misses"],
            }
        )


# ----------------------------------------------------------------------
# fleet-tcp
# ----------------------------------------------------------------------
class FleetTcp:
    """A fleet sweep over ``tcp://``: ``NetServer`` fronting a
    ``MemoryStore`` and a directory ``JobQueue``, reached through
    ``RemoteStore`` / ``RemoteJobQueue``, drained by one in-process
    worker.

    Each cycle is one cold sweep (store and queue emptied first) then
    ``REPLAYS`` warm replays (queue emptied first, every segment
    stored), so every op starts from the same store and queue state.
    """

    name = "fleet-tcp"
    # Client and server threads hand every RPC to each other; on one
    # vCPU the hand-off is a local wake-up, not a cross-vCPU one.
    ONE_CPU = True
    ON_PATH = (
        "core.", "plan.missing", "plan.replay_missing", "fleet.", "queue.",
        "store.", "net.", "trace.",
    )
    SEGMENT_TRIALS = 250
    REPLAYS = 3

    def __init__(self, seed: int, work_dir: Path, seconds: float) -> None:
        # A 20k-event catalog keeps each layer's table at 2.4 MB, so the
        # kernel is a minority of a sweep and coordination, wire and
        # store work dominate.
        workload = generate_workload(
            _spec(
                "perfbench-fleet", seed, n_trials=8_000, n_layers=2, catalog_size=20_000
            ),
            seed=seed,
        )
        self.yet = workload.yet
        self.portfolio = workload.portfolio
        self.catalog_size = workload.catalog.n_events
        self.engine = create_engine("sequential")
        started = time.perf_counter()
        self.digest = ylt_digest(
            self.engine.run(self.yet, self.portfolio, self.catalog_size).ylt
        )
        # The warm-up sweep, not the monolithic check, builds the tables.
        clear_lookup_cache()
        self.check_s = time.perf_counter() - started
        self.n_segments = len(self.portfolio.layers) * math.ceil(
            self.yet.n_trials / self.SEGMENT_TRIALS
        )
        self.context = context_for_engine(
            self.yet, self.portfolio, self.catalog_size, self.engine
        )
        self.queue_dir = Path(tempfile.mkdtemp(prefix="fleet-queue-", dir=work_dir))
        self.backing = MemoryStore(max_entries=None)
        self.server = NetServer(self.backing, JobQueue(self.queue_dir))
        self.server_thread = ServerThread(self.server)
        host, port = self.server_thread.start()
        self.store = RemoteStore(host, port)
        self.queue = RemoteJobQueue(host, port)
        self.warmup = Outcome()
        self.warmup.record(self._check_sweep(self._sweep()), "warm-up sweep")
        self.warmup.record(self._check_replay(self._replay()), "warm-up replay")

    def close(self) -> None:
        # Server first: its shutdown cancels and awaits the connection
        # handlers while the clients are still connected.
        self.server_thread.stop()
        self.store.close()
        self.queue.close()
        shutil.rmtree(self.queue_dir, ignore_errors=True)

    # -- ops -----------------------------------------------------------
    def _reset(self, keep_store: bool) -> None:
        if not keep_store:
            self.backing.clear()
        for child in self.queue_dir.iterdir():
            shutil.rmtree(child)

    def rpcs(self) -> int:
        return self.store.transport.requests + self.queue.transport.requests

    def _submit(self):
        return submit_sweep(
            self.queue,
            self.store,
            self.yet,
            self.portfolio,
            self.catalog_size,
            self.engine,
            segment_trials=self.SEGMENT_TRIALS,
        )

    def _sweep(self, tracer: Tracer | None = None):
        with _span(tracer, "fleet.submit"):
            ticket = self._submit()
        with _span(tracer, "fleet.drain"):
            stats = run_workers(
                self.queue,
                self.store,
                contexts={ticket.sweep_id: self.context},
                n_workers=1,
                sweep_id=ticket.sweep_id,
            )
        with _span(tracer, "fleet.gather"):
            ylt = gather_sweep(self.queue, self.store, ticket.sweep_id)
        return ticket, stats, ylt

    def _replay(self, tracer: Tracer | None = None):
        with _span(tracer, "fleet.replay_submit"):
            ticket = self._submit()
        with _span(tracer, "fleet.replay_gather"):
            ylt = gather_sweep(self.queue, self.store, ticket.sweep_id)
        return ticket, None, ylt

    def _check_sweep(self, result) -> bool:
        ticket, stats, ylt = result
        return (
            ticket.submitted == self.n_segments
            and sum(s.computed for s in stats) == self.n_segments
            and ylt_digest(ylt) == self.digest
        )

    def _check_replay(self, result) -> bool:
        ticket, _stats, ylt = result
        return ticket.submitted == 0 and ylt_digest(ylt) == self.digest

    # -- tracing -------------------------------------------------------
    def _install(self, tracer: Tracer, profile: ActivityProfile) -> None:
        tracer.wrap(self.engine, "plan_missing", "plan.missing")
        for method in ("submit", "claim", "complete"):
            tracer.wrap(self.queue, method, f"queue.{method}")
        for method in ("get", "put", "contains"):
            tracer.wrap(self.store, method, f"store.{method}")
        tracer.wrap(self.store.transport, "request", "net.rpc")
        tracer.wrap(self.queue.transport, "request", "net.rpc")
        tracer.wrap(self.server, "_dispatch", "net.server")

        def with_profile(original):
            def call(*args, **kwargs):
                kwargs.setdefault("profile", profile)
                return original(*args, **kwargs)

            return call

        tracer.wrap(
            fleet_worker, "execute_segment_cpu", "fleet.compute", with_profile
        )

    def _traced(self, out: Outcome, kind: str, op, check, sink: List[float]):
        tracer = Tracer()
        profile = ActivityProfile()
        hits, misses = self.store.hits, self.store.misses
        rpcs_before = self.rpcs()
        self._install(tracer, profile)
        try:
            latency, _ = _timed(out, kind, lambda: op(tracer), check)
        finally:
            tracer.unwrap_all()
        if latency is None:
            return None
        sink.append(latency)
        hits, misses = self.store.hits - hits, self.store.misses - misses
        return tracer.drain(), profile, latency, self.rpcs() - rpcs_before, hits, misses

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = self.warmup
        sweeps: List[float] = []
        replays: List[float] = []
        traced_sweeps: List[float] = []
        traced_replays: List[float] = []
        compute_s: List[float] = []
        sweep_layers: List[Dict[str, float]] = []
        replay_layers: List[Dict[str, float]] = []
        trials = self.yet.n_trials * len(self.portfolio.layers)
        deadline = time.perf_counter() + seconds
        cycle = 0
        while time.perf_counter() < deadline:
            traced = trace and cycle % 2 == 1
            self._reset(keep_store=False)
            if traced:
                result = self._traced(
                    out, "traced sweep", self._sweep, self._check_sweep, traced_sweeps
                )
                if result is not None:
                    sweep_layers.append(self._sweep_layers(*result))
            else:
                latency, result = _timed(out, "sweep", self._sweep, self._check_sweep)
                if latency is not None:
                    sweeps.append(latency)
                    compute_s.append(sum(s.compute_seconds for s in result[1]))
            for _ in range(self.REPLAYS):
                self._reset(keep_store=True)
                if traced:
                    result = self._traced(
                        out,
                        "traced replay",
                        self._replay,
                        self._check_replay,
                        traced_replays,
                    )
                    if result is not None:
                        replay_layers.append(self._replay_layers(*result))
                else:
                    latency, _ = _timed(out, "replay", self._replay, self._check_replay)
                    if latency is not None:
                        replays.append(latency)
            cycle += 1
        if not trace:
            out.end_to_end = {
                "op_p50_ms": _median(sweeps) * 1e3,
                "trials_per_s": _per_second(trials, sweeps),
                "replay_p50_ms": _median(replays) * 1e3,
            }
            out.details = {
                "op_p90_ms": _quantile(sweeps, 0.9) * 1e3,
                "op_samples": len(sweeps),
                "replay_p90_ms": _quantile(replays, 0.9) * 1e3,
                "replay_samples": len(replays),
                "worker_compute_p50_ms": _median(compute_s) * 1e3,
            }
            return out
        if not sweep_layers or not replay_layers:
            return out
        _counts_repeat(sweep_layers, out)
        _counts_repeat(replay_layers, out)
        layer = _mean_per_op(sweep_layers)
        layer.update(_mean_per_op(replay_layers))
        layer.update(_computed_kernel_counts(self.yet, self.portfolio))
        layer["trace.residual_pct"] = (
            100.0 * layer["fleet.residual_ms"] / (statistics.fmean(traced_sweeps) * 1e3)
        )
        layer["trace.overhead_pct"] = _overhead_pct(sweeps, traced_sweeps)
        layer["trace.ops"] = len(traced_sweeps) + len(traced_replays)
        layer["fleet.replay_p90_ms"] = _quantile(replays, 0.9) * 1e3
        layer["fleet.replay_samples"] = len(replays)
        out.per_layer = layer
        return out

    @staticmethod
    def _sweep_layers(spans: SpanSummary, profile, latency, rpcs, hits, misses):
        rpc_ms = spans.ms("net.rpc")
        # Blocking-path time outside worker compute, round trips and
        # planning: client-side coordination in Python.
        residual = (
            latency * 1e3
            - spans.ms("fleet.compute")
            - rpc_ms
            - spans.self_ms("plan.missing")
        )
        return {
            **_profile_ms(profile),
            "fleet.submit_ms": spans.ms("fleet.submit"),
            "fleet.drain_ms": spans.ms("fleet.drain"),
            "fleet.gather_ms": spans.ms("fleet.gather"),
            "fleet.compute_ms": spans.ms("fleet.compute"),
            "fleet.residual_ms": residual,
            "plan.missing_ms": spans.ms("plan.missing"),
            "queue.submit_ms": spans.ms("queue.submit"),
            "queue.claim_ms": spans.ms("queue.claim"),
            "queue.complete_ms": spans.ms("queue.complete"),
            "queue.claims": spans.count("queue.claim"),
            "queue.completes": spans.count("queue.complete"),
            "store.put_ms": spans.ms("store.put"),
            "store.puts": spans.count("store.put"),
            "store.sweep_gets": spans.count("store.get"),
            "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "net.rpcs_per_sweep": rpcs,
            "net.rpc_ms": rpc_ms / max(1, spans.count("net.rpc")),
            "net.server_ms": spans.ms("net.server") / max(1, spans.count("net.server")),
        }

    @staticmethod
    def _replay_layers(spans: SpanSummary, profile, latency, rpcs, hits, misses):
        return {
            "fleet.replay_submit_ms": spans.ms("fleet.replay_submit"),
            "fleet.replay_gather_ms": spans.ms("fleet.replay_gather"),
            "plan.replay_missing_ms": spans.ms("plan.missing"),
            "store.get_ms": spans.ms("store.get"),
            "store.gets": spans.count("store.get"),
            "store.contains_ms": spans.ms("store.contains"),
            "store.contains": spans.count("store.contains"),
            "net.rpcs_per_replay": rpcs,
        }


# ----------------------------------------------------------------------
# quote-stream
# ----------------------------------------------------------------------
class QuoteStream:
    """An open loop of quote requests into ``QuoteFrontEnd``.

    ``RATE_QPS`` is a fixed absolute offered rate, far below what one
    quote worker sustains, so the run measures service plus hand-off
    latency, not a growing backlog.  Latency is timed from each
    request's due time.  About one request in ten repeats a candidate
    sent 20-40 requests earlier: already finished and still inside the
    64-entry loss cache, so it takes the loss-cache path and never
    coalesces.
    """

    name = "quote-stream"
    # Re-quoting for the check happens after the run, not in set-up.
    check_s = 0.0
    # The event loop hands every quote to the worker thread and back.
    ONE_CPU = True
    ON_PATH = ("core.layer_terms_ms", "pricing.", "serve.", "loadgen.", "trace.")
    RATE_QPS = 50.0
    BOOK_LAYERS = 2
    CANDIDATE_SETS = 4
    REPEAT_SHARE = 0.1
    REPEAT_BACK = (20, 40)
    TIMEOUT_S = 2.0
    MAX_INFLIGHT = 64
    VERIFY_SAMPLE = 16

    def __init__(self, seed: int, work_dir: Path, seconds: float) -> None:
        n_layers = self.BOOK_LAYERS + self.CANDIDATE_SETS
        workload = generate_workload(
            _spec("perfbench-quote", seed, n_trials=10_000, n_layers=n_layers),
            seed=seed,
        )
        self.yet = workload.yet
        self.catalog_size = workload.catalog.n_events
        portfolio = workload.portfolio
        self.elts = list(portfolio.elts.values())
        book_layers = portfolio.layers[: self.BOOK_LAYERS]
        self.book = Portfolio(
            elts={e: portfolio.elts[e] for l in book_layers for e in l.elt_ids},
            layers=list(book_layers),
        )
        self.sets = portfolio.layers[self.BOOK_LAYERS :]
        self.service = self._service()
        self.frontend = QuoteFrontEnd(self.service, max_inflight=self.MAX_INFLIGHT)
        self.requests, self.repeats = self._schedule(seed, seconds)
        self.rng = np.random.default_rng(seed)
        self.expectation_errors: List[str] = []
        self.warmup = Outcome()
        # Warm-up, untimed: every candidate set's base vector, the
        # book's losses and the worker pool, through the front-end.
        warm = [
            QuoteRequest(elt_ids=layer.elt_ids, terms=layer.terms, label="warm")
            for layer in self.sets
        ]
        records = asyncio.run(self._warm(warm))
        for record in records:
            self.warmup.record(record.marginal_tvar is not None, "warm-up quote")

    def _service(self) -> QuoteService:
        return QuoteService(
            self.yet, self.elts, self.catalog_size, book=self.book, max_workers=1
        )

    async def _warm(self, requests):
        return [
            await self.frontend.quote_request(r, timeout=self.TIMEOUT_S)
            for r in requests
        ]

    def _schedule(self, seed: int, seconds: float):
        rng = np.random.default_rng([seed, 1])
        n = max(2, int(self.RATE_QPS * seconds))
        requests: List[QuoteRequest] = []
        repeats: List[bool] = []
        for i in range(n):
            if i >= self.REPEAT_BACK[1] and rng.random() < self.REPEAT_SHARE:
                back = int(rng.integers(self.REPEAT_BACK[0], self.REPEAT_BACK[1] + 1))
                requests.append(requests[i - back])
                repeats.append(True)
                continue
            layer = self.sets[int(rng.integers(len(self.sets)))]
            scale = rng.uniform(0.5, 1.5, size=4)
            terms = LayerTerms(*(t * s for t, s in zip(layer.terms.as_tuple(), scale)))
            requests.append(QuoteRequest(elt_ids=layer.elt_ids, terms=terms))
            repeats.append(False)
        return requests, repeats

    def close(self) -> None:
        self.service.close()

    async def _drive(self, indices: List[int], results: Dict[int, tuple]):
        """Offer ``indices`` on the open-loop schedule; returns lateness."""
        lateness: List[float] = []

        async def one(index: int, due: float) -> None:
            try:
                record = await self.frontend.quote_request(
                    self.requests[index], timeout=self.TIMEOUT_S
                )
            except Overloaded:
                results[index] = ("shed", None, None)
            except DeadlineExceeded:
                results[index] = ("late", None, None)
            except Exception as exc:  # noqa: BLE001 - an error is a failed op
                results[index] = (f"error {exc!r}", None, None)
            else:
                results[index] = ("ok", record, time.perf_counter() - due)

        tasks = []
        start = time.perf_counter() + 0.01
        for k, index in enumerate(indices):
            due = start + k / self.RATE_QPS
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(time.perf_counter() - due)
            tasks.append(asyncio.ensure_future(one(index, due)))
        await asyncio.gather(*tasks)
        return lateness

    def _cache_counts(self) -> Dict[str, int]:
        stats = self.service.cache_stats()
        return {
            "pricing.base_hits": stats["base"]["hits"],
            "pricing.base_misses": stats["base"]["misses"],
            "pricing.loss_hits": stats["losses"]["hits"],
            "pricing.loss_misses": stats["losses"]["misses"],
            "serve.coalesced": self.frontend.coalesced,
        }

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = self.warmup
        n = len(self.requests)
        split = n // 2 if trace else n
        results: Dict[int, tuple] = {}
        lateness = asyncio.run(self._drive(list(range(split)), results))
        traced_layer: Dict[str, float] = {}
        if trace:
            traced_layer = self._traced_half(list(range(split, n)), results)
        mismatched = self._verify(results)
        for index in range(n):
            status = results[index][0]
            if index in mismatched:
                status = "differs from a direct re-quote"
            out.record(status == "ok", f"quote {index}: {status}")
        for error in self.expectation_errors:
            out.flag(f"exact count: {error}")

        def latencies(indices):
            return [results[i][2] for i in indices if results[i][0] == "ok"]

        first = latencies(range(split))
        if not trace:
            served = [results[i][1] for i in range(n) if results[i][0] == "ok"]
            cached = latencies(i for i in range(n) if self.repeats[i])
            out.end_to_end = {
                "op_p50_ms": _median(first) * 1e3,
                "trials_per_s": _per_second(
                    self.yet.n_trials, [r.analysis_seconds for r in served]
                ),
                "replay_p50_ms": _median(cached) * 1e3,
            }
            out.details = {
                "op_p90_ms": _quantile(first, 0.9) * 1e3,
                "op_samples": len(first),
                "replay_samples": len(cached),
                "service_p50_ms": _median(r.analysis_seconds for r in served) * 1e3,
                "loadgen_late_p90_ms": _quantile(lateness, 0.9) * 1e3,
            }
            return out
        second = latencies(range(split, n))
        traced_layer["trace.overhead_pct"] = _overhead_pct(first, second)
        traced_layer["trace.ops"] = len(second)
        traced_layer["serve.p90_ms"] = _quantile(first, 0.9) * 1e3
        traced_layer["serve.samples"] = len(first)
        traced_layer["loadgen.late_ms"] = _quantile(lateness, 0.9) * 1e3
        traced_layer["loadgen.samples"] = len(lateness)
        out.per_layer = traced_layer
        return out

    def _traced_half(self, indices: List[int], results) -> Dict[str, float]:
        tracer = Tracer()
        tracer.wrap(self.service, "candidate_losses", "pricing.losses")
        tracer.wrap(pricing_realtime, "finish_layer_losses", "core.layer_terms")
        before = self._cache_counts()
        try:
            asyncio.run(self._drive(indices, results))
        finally:
            tracer.unwrap_all()
        after = self._cache_counts()
        spans = tracer.drain()
        served = [i for i in indices if results[i][0] == "ok"]
        k = max(1, len(indices))
        service_ms = [results[i][1].analysis_seconds * 1e3 for i in served]
        wait_ms = [results[i][2] * 1e3 - s for i, s in zip(served, service_ms)]
        layer: Dict[str, float] = {
            name: (after[name] - before[name]) / k for name in after
        }
        layer["serve.shed"] = sum(results[i][0] == "shed" for i in indices) / k
        # Per quote: a new candidate misses the loss cache and hits the
        # warmed base cache; a repeat hits the loss cache.
        new = sum(not self.repeats[i] for i in indices)
        expected = {
            "pricing.base_hits": new / k,
            "pricing.base_misses": 0.0,
            "pricing.loss_hits": (len(indices) - new) / k,
            "pricing.loss_misses": new / k,
            "serve.coalesced": 0.0,
            "serve.shed": 0.0,
        }
        self.expectation_errors = [
            f"{name}: {layer[name]} != expected {value}"
            for name, value in expected.items()
            if layer[name] != value
        ]
        m = max(1, len(served))
        layer["serve.service_ms"] = sum(service_ms) / m
        layer["serve.wait_ms"] = sum(wait_ms) / m
        layer["pricing.losses_ms"] = spans.ms("pricing.losses") / m
        layer["pricing.price_ms"] = (
            layer["serve.service_ms"] - layer["pricing.losses_ms"]
        )
        layer["core.layer_terms_ms"] = spans.ms("core.layer_terms") / m
        latency = sum(results[i][2] for i in served) * 1e3 / m
        layer["trace.residual_pct"] = (
            100.0 * layer["serve.wait_ms"] / latency if latency else 0.0
        )
        return layer

    def _verify(self, results) -> set:
        """Re-quote a seeded sample directly on a fresh service; the
        indices whose served quote is not bit-for-bit the direct one."""
        served = [i for i in sorted(results) if results[i][0] == "ok"]
        sample = self.rng.choice(
            served, size=min(self.VERIFY_SAMPLE, len(served)), replace=False
        )
        mismatched = set()
        with self._service() as fresh:
            for index in (int(i) for i in sample):
                request = self.requests[index]
                direct = fresh.quote(request.elt_ids, request.terms, request.layer_id)
                record = results[index][1]
                if astuple(direct.quote) != astuple(record.quote) or (
                    direct.marginal_tvar != record.marginal_tvar
                ):
                    mismatched.add(index)
        return mismatched


WORKLOADS = {cls.name: cls for cls in (PaperAnalysis, FleetTcp, QuoteStream)}
