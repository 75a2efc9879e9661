"""Segment-level result assembly: stored pieces → one exact YLT.

The assembler is the read side of a fleet sweep: given a sweep's
segment records (from a manifest or a
:class:`~repro.plan.delta.DeltaPlan`), it pulls each segment's stored
per-trial losses and writes them into the output rows at the segment's
global trial range — the same slot-assignment rule every executor uses,
so the assembled :class:`~repro.data.ylt.YearLossTable` is bit-for-bit
identical to a monolithic run (segments store the exact ``float64``
bytes a monolithic executor would have written; assembly is pure
placement, no arithmetic).
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.data.ylt import YearLossTable
from repro.plan.delta import DeltaPlan
from repro.store.base import ResultStore, StoreEntry
from repro.store.verify import fetch_verified, verify_entry
from repro.utils.retry import STORE_FETCH_POLICY, RetryPolicy


class FleetAssemblyError(RuntimeError):
    """A sweep cannot be assembled (segments missing or inconsistent)."""


#: the assembler's segment view: (key, layer_id, trial_start, trial_stop)
SegmentSpec = Tuple[str, int, int, int]


def _segment_specs(source) -> List[SegmentSpec]:
    """Normalise a DeltaPlan / manifest / iterable into segment specs."""
    if isinstance(source, DeltaPlan):
        return [
            (r.key, r.task.layer_id, r.task.trial_start, r.task.trial_stop)
            for r in source.segments
        ]
    if isinstance(source, Mapping):  # a sweep manifest
        return [
            (
                str(seg["key"]),
                int(seg["layer_id"]),
                int(seg["trial_start"]),
                int(seg["trial_stop"]),
            )
            for seg in source["segments"]
        ]
    return [
        (str(key), int(layer_id), int(start), int(stop))
        for key, layer_id, start, stop in source
    ]


class ResultAssembler:
    """Merge stored per-segment losses into the final YLT.

    Segments are read in one batched ``get_many`` (one round trip per
    chunk on a remote store) and each entry is checked with
    :func:`~repro.store.verify.verify_entry`.  Whatever the batch could
    not serve — an absent or damaged entry, or a batch that failed
    outright — is fetched again through
    :func:`~repro.store.verify.fetch_verified`: transient read errors
    and transient corruption are retried under ``retry_policy``, and a
    durably damaged entry is deleted from the store and reported as
    *missing* — so the caller's normal recovery path (requeue the
    missing segments, recompute, gather again) also heals corruption.
    Hedging stores skip the batch and read every key that way.
    """

    def __init__(
        self,
        store: ResultStore,
        retry_policy: RetryPolicy = STORE_FETCH_POLICY,
    ) -> None:
        self.store = store
        self.retry_policy = retry_policy

    # ------------------------------------------------------------------
    def missing_keys(self, source) -> List[str]:
        """Segment keys the store cannot currently serve."""
        keys = [key for key, *_ in _segment_specs(source)]
        return [
            key
            for key, found in zip(keys, self.store.contains_many(keys))
            if not found
        ]

    def _fetch_all(self, keys: Sequence[str]) -> List[Optional[StoreEntry]]:
        """Verified entries of ``keys`` (``None`` where unservable)."""
        batch: Sequence[Optional[StoreEntry]] = [None] * len(keys)
        if not getattr(self.store, "hedge", False):
            try:
                batch = self.store.get_many(keys)
            except self.retry_policy.retry_on:
                pass  # every key takes the per-key retry path below
        return [
            entry
            if entry is not None and verify_entry(entry)
            else fetch_verified(self.store, key, policy=self.retry_policy)
            for key, entry in zip(keys, batch)
        ]

    def assemble(
        self,
        source: "DeltaPlan | Mapping[str, Any] | Iterable[SegmentSpec]",
        n_trials: int | None = None,
    ) -> YearLossTable:
        """Build the YLT from stored segments.

        ``source`` is a :class:`~repro.plan.delta.DeltaPlan`, a sweep
        manifest dict, or an iterable of ``(key, layer_id, trial_start,
        trial_stop)`` tuples.  Every layer's segments must tile
        ``[0, n_trials)`` exactly once (``n_trials`` is inferred from
        the source when omitted) and every key must be retrievable —
        anything else raises :class:`FleetAssemblyError` naming the
        problem, because a partially assembled YLT is a wrong answer,
        not a degraded one.
        """
        specs = _segment_specs(source)
        if not specs:
            raise FleetAssemblyError("no segments to assemble")
        if n_trials is None:
            if isinstance(source, DeltaPlan):
                n_trials = source.plan.n_trials
            elif isinstance(source, Mapping):
                n_trials = int(source["n_trials"])
            else:
                n_trials = max(stop for _, _, _, stop in specs)

        ordered = sorted(specs, key=lambda s: (s[1], s[2]))
        covered: Dict[int, int] = {}
        for key, layer_id, start, stop in ordered:
            at = covered.setdefault(layer_id, 0)
            if start != at or stop > n_trials:
                raise FleetAssemblyError(
                    f"layer {layer_id}: segment coverage breaks at trial "
                    f"{at} (next segment spans [{start}, {stop}) of "
                    f"{n_trials})"
                )
            covered[layer_id] = stop

        per_layer: Dict[int, np.ndarray] = {}
        missing: List[str] = []
        entries = self._fetch_all([key for key, *_ in ordered])
        for (key, layer_id, start, stop), entry in zip(ordered, entries):
            out = per_layer.get(layer_id)
            if out is None:
                out = per_layer[layer_id] = np.empty(n_trials, dtype=np.float64)
            if entry is None:
                missing.append(key)
                continue
            losses = entry.arrays["losses"]
            if losses.shape != (stop - start,):
                raise FleetAssemblyError(
                    f"segment {key[:16]}… of layer {layer_id} holds "
                    f"{losses.shape} losses for trials [{start}, {stop})"
                )
            out[start:stop] = losses
        if missing:
            raise FleetAssemblyError(
                f"{len(missing)} segment(s) not in store "
                f"(first: {missing[0]}) — run workers (or requeue) before "
                "gathering"
            )
        for layer_id, stop in covered.items():
            if stop != n_trials:
                raise FleetAssemblyError(
                    f"layer {layer_id} covered only [0, {stop}) of "
                    f"[0, {n_trials})"
                )
        return YearLossTable.from_dict(per_layer)

    def assemble_partials(
        self, manifest: Mapping[str, Any], n_trials: int | None = None
    ) -> YearLossTable:
        """Build the YLT from a sweep's partial-YLT entries.

        The partition/shuffle read path: fetch the ``P`` partition
        entries named by ``manifest["partitions"]`` (instead of the
        ``S`` member segments), unpack each partial's blocks and place
        them by global trial index — ``P`` store reads (one batched
        round trip on a remote store) for the whole sweep.  Coverage
        and placement rules are identical to :meth:`assemble`, and
        since partials concatenate the exact segment bytes, so is the
        assembled YLT.

        Raises :class:`FleetAssemblyError` when the manifest has no
        partitions or any partial is missing/damaged — callers fall
        back to per-segment assembly (which can heal by recompute).
        """
        from repro.fleet.partition import partial_blocks  # deferred

        partitions = manifest.get("partitions")
        if not partitions:
            raise FleetAssemblyError(
                "manifest has no partitions — submitted without "
                "partition/shuffle mode"
            )
        if n_trials is None:
            n_trials = int(manifest["n_trials"])

        blocks: List[Tuple[int, int, int, np.ndarray]] = []
        missing: List[str] = []
        keys = [str(partition["key"]) for partition in partitions]
        for key, entry in zip(keys, self._fetch_all(keys)):
            if entry is None:
                missing.append(key)
                continue
            try:
                blocks.extend(partial_blocks(entry))
            except ValueError as exc:
                raise FleetAssemblyError(
                    f"partial {key[:16]}… is internally inconsistent: {exc}"
                ) from exc
        if missing:
            raise FleetAssemblyError(
                f"{len(missing)} partial(s) not in store "
                f"(first: {missing[0]}) — run reduce workers before "
                "gathering"
            )

        per_layer: Dict[int, np.ndarray] = {}
        covered: Dict[int, int] = {}
        for layer_id, start, stop, losses in sorted(
            blocks, key=lambda b: (b[0], b[1])
        ):
            out = per_layer.get(layer_id)
            if out is None:
                out = per_layer[layer_id] = np.empty(n_trials, dtype=np.float64)
                covered[layer_id] = 0
            if start != covered[layer_id] or stop > n_trials:
                raise FleetAssemblyError(
                    f"layer {layer_id}: partial coverage breaks at trial "
                    f"{covered[layer_id]} (next block spans "
                    f"[{start}, {stop}) of {n_trials})"
                )
            out[start:stop] = losses
            covered[layer_id] = stop
        for layer_id, stop in covered.items():
            if stop != n_trials:
                raise FleetAssemblyError(
                    f"layer {layer_id} covered only [0, {stop}) of "
                    f"[0, {n_trials})"
                )
        return YearLossTable.from_dict(per_layer)
