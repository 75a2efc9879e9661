"""The multi-machine acceptance path: a 3-worker fleet over localhost
sockets — every worker talking to one ``repro-kv-server`` through its
own ``RemoteStore``/``RemoteJobQueue`` — produces a YLT bit-identical
to the monolithic run, with exactly one compute per segment fleet-wide,
under injected wire latency and one worker killed mid-sweep."""

from __future__ import annotations

import math
import threading

import pytest

from repro.core.analysis import AggregateRiskAnalysis
from repro.engines.registry import create_engine
from repro.faults.plan import KIND_KILL, OP_COMPUTE, FaultPlan, FaultSpec, WorkerKilled
from repro.faults.wire import wire_chaos_plan
from repro.data.generator import generate_workload
from repro.data.presets import BENCH_SMALL
from repro.fleet import (
    FleetWorker,
    JobQueue,
    context_for_engine,
    gather_sweep,
    run_workers,
    submit_sweep,
)
from repro.net.client import RemoteStore
from repro.net.queue import RemoteJobQueue
from repro.net.server import NetServer, ServerThread
from repro.store import MemoryStore, SharedFileStore, ylt_digest
from repro.utils.retry import RetryPolicy

FAST_RETRY = RetryPolicy(
    max_attempts=4, base_delay=0.005, max_delay=0.05, deadline_seconds=10.0
)


def remote_pair(host, port, fault_plan=None):
    store = RemoteStore(
        host, port, retry_policy=FAST_RETRY, fault_plan=fault_plan
    )
    queue = RemoteJobQueue(host, port, retry_policy=FAST_RETRY)
    return store, queue


class TestThreeWorkerFleet:
    def test_digest_identical_with_latency_and_a_dead_worker(
        self, tiny_workload, tmp_path
    ):
        wl = tiny_workload
        ara = AggregateRiskAnalysis(wl.portfolio, wl.catalog.n_events)
        mono = ara.run(wl.yet, engine="sequential")

        # Server: file-backed store + short-leased queue, one port.
        server_store = SharedFileStore(tmp_path / "cache")
        server_queue = JobQueue(
            tmp_path / "q", lease_seconds=1.0, max_attempts=5
        )
        engine = create_engine("sequential")
        ctx = context_for_engine(
            wl.yet, wl.portfolio, wl.catalog.n_events, engine
        )

        with ServerThread(NetServer(server_store, queue=server_queue)) as (
            host,
            port,
        ):
            submit_store, submit_queue = remote_pair(host, port)
            ticket = submit_sweep(
                submit_queue,
                submit_store,
                wl.yet,
                wl.portfolio,
                wl.catalog.n_events,
                engine,
                segment_trials=10,  # 6 segments for the tiny workload
            )
            n_segments = ticket.delta.n_segments
            assert ticket.submitted == n_segments

            # Three workers, each with its own sockets and wire chaos;
            # the third dies at its first compute (crash, not failure:
            # its claim is never failed, only lease-expired).
            latency = wire_chaos_plan(
                41, latency_seconds=0.002, latency_probability=0.25
            )
            kill_plan = FaultPlan(
                97,
                [
                    FaultSpec(
                        kind=KIND_KILL,
                        op=OP_COMPUTE,
                        at=1,
                        worker_substring="w-doomed",
                    )
                ],
            )
            workers = []
            for name, plan in (
                ("w-alpha", latency),
                ("w-beta", latency),
                ("w-doomed", kill_plan),
            ):
                store, queue = remote_pair(host, port, fault_plan=plan)
                workers.append(
                    FleetWorker(
                        queue,
                        store,
                        contexts={ticket.sweep_id: ctx},
                        worker_id=name,
                        fault_plan=kill_plan if name == "w-doomed" else None,
                        speculate=False,
                    )
                )

            deaths = []

            def drive(worker):
                try:
                    worker.run(sweep_id=ticket.sweep_id, poll_seconds=0.02)
                except WorkerKilled:
                    deaths.append(worker.worker_id)

            # The doomed worker goes first so its death is guaranteed
            # to leave a claimed-but-abandoned job behind; the
            # survivors then drain the queue, requeueing that job once
            # its lease expires on the server.
            doomed = threading.Thread(target=drive, args=(workers[2],))
            doomed.start()
            doomed.join(timeout=30.0)
            assert not doomed.is_alive()
            assert deaths == ["w-doomed"]
            assert submit_queue.counts(ticket.sweep_id)["claimed"] == 1

            threads = [
                threading.Thread(target=drive, args=(w,))
                for w in workers[:2]
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)

            # The survivors drained everything, including the dead
            # worker's lease-expired job.
            counts = submit_queue.counts(ticket.sweep_id)
            assert counts["done"] == n_segments
            assert counts["failed"] == 0

            # Exactly one compute per segment fleet-wide: the dead
            # worker computed nothing, and the server's lock kept the
            # survivors from duplicating each other.
            assert sum(w.stats.computed for w in workers) == n_segments

            gather_store, gather_queue = remote_pair(host, port)
            ylt = gather_sweep(gather_queue, gather_store, ticket.sweep_id)
            assert ylt_digest(ylt) == ylt_digest(mono.ylt)

            for w in workers:
                w.store.close()
                w.queue.close()

    def test_partition_mode_over_the_wire(self, tiny_workload, tmp_path):
        wl = tiny_workload
        ara = AggregateRiskAnalysis(wl.portfolio, wl.catalog.n_events)
        mono = ara.run(wl.yet, engine="sequential")
        server_store = SharedFileStore(tmp_path / "cache")
        server_queue = JobQueue(tmp_path / "q", lease_seconds=10.0)
        engine = create_engine("sequential")
        ctx = context_for_engine(
            wl.yet, wl.portfolio, wl.catalog.n_events, engine
        )
        with ServerThread(NetServer(server_store, queue=server_queue)) as (
            host,
            port,
        ):
            store, queue = remote_pair(host, port)
            ticket = submit_sweep(
                queue,
                store,
                wl.yet,
                wl.portfolio,
                wl.catalog.n_events,
                engine,
                segment_trials=10,
                n_partitions=2,
            )
            assert ticket.submitted == 2  # reduce jobs, not segments
            worker = FleetWorker(
                queue,
                store,
                contexts={ticket.sweep_id: ctx},
                worker_id="w-reduce",
                speculate=False,
            )
            worker.run(sweep_id=ticket.sweep_id)
            ylt = gather_sweep(queue, store, ticket.sweep_id)
            assert ylt_digest(ylt) == ylt_digest(mono.ylt)


#: 256 trials x 2 layers: strides 16 and 4 give 32 and 128 segments.
RPC_SPEC = BENCH_SMALL.with_(
    name="rpc-count",
    n_trials=256,
    events_per_trial=5,
    catalog_size=800,
    losses_per_elt=80,
    elts_per_layer=2,
    n_layers=2,
)


class TestRoundTripCounts:
    def test_replay_and_gather_round_trips_do_not_grow_with_segments(
        self, tmp_path
    ):
        """Batched probes and reads: a fully stored sweep replays in a
        constant number of RPCs, and a cold gather reads its S segments
        in one ``mget`` per 256 keys."""
        wl = generate_workload(RPC_SPEC)
        engine = create_engine("sequential")
        n_events = wl.catalog.n_events
        reference = ylt_digest(engine.run(wl.yet, wl.portfolio, n_events).ylt)
        ctx = context_for_engine(wl.yet, wl.portfolio, n_events, engine)
        replay_rpcs = {}
        for stride in (16, 4):
            server = NetServer(
                MemoryStore(max_entries=None),
                queue=JobQueue(tmp_path / f"q{stride}"),
            )
            with ServerThread(server) as (host, port):

                def submit(store, queue):
                    return submit_sweep(
                        queue, store, wl.yet, wl.portfolio, n_events, engine,
                        segment_trials=stride,
                    )

                store, queue = remote_pair(host, port)
                ticket = submit(store, queue)
                n_segments = ticket.delta.n_segments
                run_workers(
                    queue, store, contexts={ticket.sweep_id: ctx},
                    n_workers=1, sweep_id=ticket.sweep_id,
                )
                g_store, g_queue = remote_pair(host, port)
                ylt = gather_sweep(g_queue, g_store, ticket.sweep_id)
                assert ylt_digest(ylt) == reference
                assert g_store.transport.requests <= math.ceil(
                    n_segments / 256
                ) + 1

                r_store, r_queue = remote_pair(host, port)
                replay = submit(r_store, r_queue)
                assert replay.submitted == 0
                ylt = gather_sweep(r_queue, r_store, replay.sweep_id)
                assert ylt_digest(ylt) == reference
                replay_rpcs[n_segments] = (
                    r_store.transport.requests + r_queue.transport.requests
                )
                for client in (store, queue, g_store, g_queue, r_store, r_queue):
                    client.close()
        assert sorted(replay_rpcs) == [32, 128]
        assert replay_rpcs[32] == replay_rpcs[128] <= 6, replay_rpcs
