"""The batched read contract: ``get_many`` / ``contains_many``.

Every store must answer a batch exactly as the per-key loop would —
missing keys, duplicates and the empty batch included — count one hit
or miss per key, and reject an invalid key before reading anything.
``RemoteStore`` carries a batch in ``mget``/``mcontains`` frames of at
most ``MAX_BATCH_KEYS`` keys; its chunking, the server's ``deferred``
continuation, malformed-frame handling and the chaos hook's view of a
batched frame are pinned here too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults.plan import no_faults
from repro.faults.store import FaultyStore
from repro.faults.wire import wire_chaos_plan
from repro.net.client import RemoteStore
from repro.net.protocol import MAX_BATCH_KEYS
from repro.net.server import NetServer, ServerThread
from repro.store import (
    FileStore,
    MemoryStore,
    SharedFileStore,
    StoreEntry,
    TieredStore,
)
from repro.utils.retry import RetryPolicy

FAST_RETRY = RetryPolicy(
    max_attempts=3, base_delay=0.001, max_delay=0.01, deadline_seconds=2.0
)
STORE_KINDS = ("memory", "file", "shared-file", "tiered", "faulty", "remote")


def key(i: int) -> str:
    return f"{i:064x}"


def entry_for(i: int) -> StoreEntry:
    return StoreEntry(
        arrays={"losses": np.arange(8, dtype=np.float64) * i},
        meta={"i": i},
    )


def same_entry(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return dict(a.meta) == dict(b.meta) and all(
        np.array_equal(a.arrays[name], b.arrays[name]) for name in b.arrays
    ) and set(a.arrays) == set(b.arrays)


@pytest.fixture(params=STORE_KINDS)
def store(request, tmp_path):
    kind = request.param
    if kind == "remote":
        with ServerThread(NetServer(MemoryStore(max_entries=None))) as (
            host,
            port,
        ):
            client = RemoteStore(host, port, retry_policy=FAST_RETRY)
            yield client
            client.close()
        return
    yield {
        "memory": lambda: MemoryStore(max_entries=None),
        "file": lambda: FileStore(tmp_path / "c"),
        "shared-file": lambda: SharedFileStore(tmp_path / "c"),
        "tiered": lambda: TieredStore(
            [MemoryStore(max_entries=None), FileStore(tmp_path / "c")]
        ),
        "faulty": lambda: FaultyStore(
            MemoryStore(max_entries=None), no_faults()
        ),
    }[kind]()


def rpcs(store) -> int:
    transport = getattr(store, "transport", None)
    return 0 if transport is None else transport.requests


class TestBatchedContract:
    def test_get_many_equals_the_per_key_loop(self, store):
        for i in (1, 2, 3):
            store.put(key(i), entry_for(i))
        asked = [key(1), key(9), key(2), key(1), key(8), key(3), key(9)]
        hits, misses = store.hits, store.misses
        batch = store.get_many(asked)
        assert (store.hits - hits, store.misses - misses) == (4, 3)
        loop = [store.get(k) for k in asked]
        assert len(batch) == len(asked)
        assert all(same_entry(b, l) for b, l in zip(batch, loop))
        assert [b is None for b in batch] == [
            False, True, False, False, True, False, True,
        ]

    def test_contains_many_equals_the_per_key_loop(self, store):
        store.put(key(4), entry_for(4))
        asked = [key(4), key(5), key(4), key(6)]
        hits, misses = store.hits, store.misses
        assert store.contains_many(asked) == [store.contains(k) for k in asked]
        assert store.contains_many(asked) == [True, False, True, False]
        # existence probes never count as hits or misses
        assert (store.hits, store.misses) == (hits, misses)

    def test_empty_batches(self, store):
        before = rpcs(store)
        assert store.get_many([]) == []
        assert store.contains_many([]) == []
        assert (store.hits, store.misses) == (0, 0)
        assert rpcs(store) == before

    def test_invalid_key_raises_before_any_read(self, store):
        store.put(key(1), entry_for(1))
        before = rpcs(store)
        for bad in ("not a valid key!", "", 7):
            with pytest.raises(ValueError):
                store.get_many([key(1), bad])
            with pytest.raises(ValueError):
                store.contains_many([key(1), bad])
        assert (store.hits, store.misses) == (0, 0)
        assert rpcs(store) == before

    def test_large_batches(self, store):
        present = range(0, 2 * MAX_BATCH_KEYS + 40, 7)
        for i in present:
            store.put(key(i), entry_for(i))
        asked = [key(i) for i in range(2 * MAX_BATCH_KEYS + 40)]
        batch = store.get_many(asked)
        assert [b is not None for b in batch] == [
            i in present for i in range(len(asked))
        ]
        assert all(
            b.meta["i"] == i for i, b in enumerate(batch) if b is not None
        )
        assert store.contains_many(asked) == [
            i in present for i in range(len(asked))
        ]


# ----------------------------------------------------------------------
# the wire form
# ----------------------------------------------------------------------
@pytest.fixture()
def served(monkeypatch):
    """(server, backing store, client factory); clients close at exit."""
    # a 200 B reply budget: at most four 64 B entries per mget reply
    monkeypatch.setattr("repro.net.server.MGET_REPLY_BUDGET_BYTES", 200)
    backing = MemoryStore(max_entries=None)
    server = NetServer(backing)
    clients = []
    with ServerThread(server) as (host, port):

        def remote(**kwargs) -> RemoteStore:
            clients.append(
                RemoteStore(host, port, retry_policy=FAST_RETRY, **kwargs)
            )
            return clients[-1]

        yield server, backing, remote
        for client in clients:
            client.close()


class TestWireBatches:
    def test_chunks_of_max_batch_keys(self, served):
        _server, backing, remote = served
        store = remote()
        for i in range(0, 300, 50):
            backing.put(key(i), entry_for(i))
        asked = [key(i) for i in range(300)]  # 2 chunks: 256 + 44
        found = store.contains_many(asked)
        assert store.transport.requests == 2
        assert sum(found) == 6 and found[250] and not found[251]
        # 64 B entries under a 200 B budget: the first chunk's 6
        # entries take two replies (4, then 2 after a deferral), the
        # second chunk (no entries) one
        before = store.transport.requests
        batch = store.get_many(asked)
        assert store.transport.requests - before == 3
        assert [i for i, b in enumerate(batch) if b is not None] == list(
            range(0, 300, 50)
        )
        assert (store.hits, store.misses) == (6, 294)

    def test_deferred_keys_are_asked_for_again(self, served):
        server, backing, remote = served
        store = remote()
        for i in range(10):
            backing.put(key(i), entry_for(i))
        asked = [key(i) for i in (0, 1, 99, 2, 3, 4, 5, 6, 0, 7, 8, 9)]
        served_before = server.requests
        batch = store.get_many(asked)
        # 64 B per entry, 200 B budget: at most 4 entries per reply
        assert server.requests - served_before == 3
        assert store.transport.requests == 3
        for k, got in zip(asked, batch):
            assert same_entry(got, backing.get(k))

    def test_single_oversized_entry_still_progresses(self, served):
        _server, backing, remote = served
        store = remote()
        big = StoreEntry(arrays={"losses": np.ones(1000)}, meta={})
        backing.put(key(1), big)
        backing.put(key(2), big)
        batch = store.get_many([key(1), key(2)])
        assert store.transport.requests == 2
        assert all(b is not None and b.arrays["losses"].size == 1000 for b in batch)


class TestMalformedBatches:
    @pytest.mark.parametrize("op", ["mget", "mcontains"])
    @pytest.mark.parametrize(
        "keys",
        [
            "0" * 64,  # not a list
            None,
            {"a": 1},
            ["not a valid key!"],
            [key(1), 5],
            [key(i) for i in range(MAX_BATCH_KEYS + 1)],  # over the limit
        ],
        ids=["str", "none", "dict", "bad-key", "non-str-key", "over-limit"],
    )
    def test_bad_request_not_retried_and_server_keeps_serving(
        self, served, op, keys
    ):
        server, backing, remote = served
        store = remote()
        errors = server.errors
        with pytest.raises(ValueError, match="rejected by server"):
            store._rpc({"op": op, "keys": keys})
        assert store.transport.requests == 1  # bad_request: no retry
        assert server.errors == errors + 1
        backing.put(key(3), entry_for(3))
        assert store.get_many([key(3)])[0].meta["i"] == 3
        assert store.contains_many([key(3)]) == [True]

    def test_chaos_hook_sees_every_key_of_a_batched_frame(self, served):
        _server, backing, remote = served
        for i in range(3):
            backing.put(key(i), entry_for(i))
        target = key(2)
        plan = wire_chaos_plan(
            3, io_error_every=1, io_error_times=1, key_substring=target[-6:]
        )
        store = remote(fault_plan=plan)
        # a frame without the key: the narrowed rule never sees it
        assert store.contains_many([key(0), key(1)]) == [True, True]
        assert plan.n_fired() == 0
        # the matching key rides third in the frame: the rule fires
        batch = store.get_many([key(0), key(1), target])
        assert plan.n_fired() == 1
        assert plan.log[0].key == target
        assert store.stats()["rpc_retries"] == 1
        assert [b.meta["i"] for b in batch] == [0, 1, 2]
