"""CPU plan executor: run an ExecutionPlan through the shared kernels.

This is the one place the CPU engines' task-execution mechanics live;
the sequential and multicore engines (and :func:`repro.core.kernels.
run_ragged`, the kernel-level convenience entry) all execute their plans
here.  Per layer the executor:

1. builds the layer's lookup tables once, through the shared
   :class:`~repro.lookup.factory.LookupCache` (layers sharing ELTs —
   and repeated runs — build once);
2. hands each plan slot group to the :class:`~repro.plan.scheduler.
   Scheduler` (fork-join at the layer barrier);
3. inside a slot, streams the tasks through
   :func:`~repro.utils.bufpool.stream_batches`, so task ``N + 1``'s
   fetch (the CSR views, or the dense padded block) overlaps task
   ``N``'s reduce on every lane — the double-buffering the sequential
   engine had and the multicore workers previously lacked.

Outputs are written at each task's *global* trial range, and both
kernels key all stochastic state by global occurrence index, so results
are bit-for-bit identical for any scheduler concurrency.

:func:`block_losses` is the one per-block kernel dispatch (ragged/dense
x primary/secondary); the CPU executor, :func:`task_losses` (the fleet
worker's unit) and the simulated-GPU kernels all call it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.backends import KernelBackend, resolve_backend
from repro.core.kernels import (
    KERNEL_RAGGED,
    build_layer_tables,
    layer_trial_batch_ragged,
    layer_trial_batch_secondary_ragged,
)
from repro.core.secondary import layer_stream_key, resolve_secondary_seed
from repro.core.vectorized import (
    layer_trial_batch,
    layer_trial_batch_secondary,
)
from repro.data.layer import Portfolio
from repro.data.yet import YearEventTable
from repro.data.ylt import YearLossTable
from repro.plan.plan import ExecutionPlan, PlanTask
from repro.plan.scheduler import Scheduler
from repro.utils.bufpool import ScratchBufferPool, stream_batches
from repro.utils.timer import ACTIVITY_FETCH, ActivityProfile


def execute_plan_cpu(
    yet: YearEventTable,
    portfolio: Portfolio,
    catalog_size: int,
    plan: ExecutionPlan,
    lookup_kind: str = "direct",
    dtype: np.dtype | type = np.float64,
    secondary=None,
    secondary_seed=None,
    profile: ActivityProfile | None = None,
    scheduler: Scheduler | None = None,
    pools: Sequence[ScratchBufferPool] | None = None,
    cache=None,
    backend: KernelBackend | str | None = None,
) -> YearLossTable:
    """Execute ``plan`` on the CPU kernels; returns the YLT.

    Parameters
    ----------
    plan:
        The decomposition to execute (from a
        :class:`~repro.plan.planner.Planner`).
    scheduler:
        Concurrency policy (default: inline, one worker).  Any value
        produces the same YLT.
    pools:
        Scratch pools, one per plan slot (cycled if fewer).  Passing
        pools lets callers observe peak-scratch accounting and reuse
        warm buffers across runs; by default one private pool per slot
        is created (reused across layers, matching the historical
        engines' slot-pool reuse).
    profile:
        Wall-clock activity profile.  Per-slot compute and fetch charges
        are accumulated in worker-private profiles and folded in after
        each layer barrier, so the sums are CPU seconds across workers.
    backend:
        Kernel backend the ragged tasks dispatch through (resolved once
        here via :func:`repro.backends.resolve_backend`, then handed to
        every kernel call).  Excluded from the plan fingerprint: a
        backend is held to the oracle's results, not a different
        decomposition.
    """
    if plan.n_trials != yet.n_trials or plan.n_occurrences != yet.n_occurrences:
        raise ValueError(
            f"plan shape ({plan.n_trials} trials, {plan.n_occurrences} occ) "
            f"does not match YET ({yet.n_trials}, {yet.n_occurrences})"
        )
    portfolio_layers = tuple(layer.layer_id for layer in portfolio.layers)
    if set(plan.layer_ids) != set(portfolio_layers):
        raise ValueError(
            f"plan was built for layers {plan.layer_ids}, portfolio has "
            f"{portfolio_layers} — a plan is only valid for the portfolio "
            "it was planned from"
        )
    profile = profile if profile is not None else ActivityProfile()
    scheduler = scheduler if scheduler is not None else Scheduler(max_workers=1)
    n_pools = max(1, plan.n_slots)
    slot_pools: List[ScratchBufferPool] = (
        list(pools) if pools else [ScratchBufferPool() for _ in range(n_pools)]
    )
    base_seed = (
        resolve_secondary_seed(secondary_seed) if secondary is not None else 0
    )
    backend_obj = resolve_backend(backend)

    per_layer: Dict[int, np.ndarray] = {}
    for layer in portfolio.layers:
        with profile.track(ACTIVITY_FETCH):
            lookups, stacked, _ = build_layer_tables(
                portfolio.elts_of(layer),
                catalog_size,
                lookup_kind,
                dtype,
                plan.kernel,
                cache=cache,
            )
        out = np.empty(plan.n_trials, dtype=np.float64)
        stream_key = layer_stream_key(base_seed, layer.layer_id)
        # Worker-private profiles: compute charges and (background)
        # prefetch charges must not share one profile across threads —
        # ActivityProfile.charge is a bare read-modify-write.
        compute_profiles: List[ActivityProfile] = []
        fetch_profiles: List[ActivityProfile] = []

        def run_slot(slot: int, tasks: List[PlanTask]) -> None:
            wp = ActivityProfile()
            fp = ActivityProfile()
            compute_profiles.append(wp)
            fetch_profiles.append(fp)
            pool = slot_pools[slot % len(slot_pools)]

            def fetch(i: int, _slot_pool: ScratchBufferPool):
                task = tasks[i]
                with fp.track(ACTIVITY_FETCH):
                    block = fetch_block(
                        yet, task.trial_start, task.trial_stop, plan.kernel
                    )
                return task, block

            for task, block in stream_batches(fetch, len(tasks)):
                out[task.trial_start : task.trial_stop] = block_losses(
                    block,
                    lookups,
                    stacked,
                    layer.terms,
                    plan.kernel,
                    dtype,
                    secondary=secondary,
                    stream_key=stream_key,
                    occ_base=task.occ_start,
                    profile=wp,
                    pool=pool,
                    backend=backend_obj,
                )

        scheduler.run_layer(plan, layer.layer_id, run_slot)
        for wp in compute_profiles:
            profile_merge_into(profile, wp)
        for fp in fetch_profiles:
            profile_merge_into(profile, fp)
        per_layer[layer.layer_id] = out
    return YearLossTable.from_dict(per_layer)


def profile_merge_into(target: ActivityProfile, source: ActivityProfile) -> None:
    """Fold ``source``'s charges into ``target`` (post-join, single thread)."""
    for activity, seconds in source.seconds.items():
        if seconds:
            target.charge(activity, seconds)


# ----------------------------------------------------------------------
# The kernel dispatch
# ----------------------------------------------------------------------
def fetch_block(yet: YearEventTable, start: int, stop: int, kernel: str):
    """Kernel input for trials ``[start, stop)``.

    The ragged path's zero-copy CSR views ``(event_ids, offsets)``, or
    the dense path's padded ``(trials, events)`` id matrix.
    """
    if kernel == KERNEL_RAGGED:
        return yet.csr_block(start, stop)
    return yet.slice_trials(start, stop).to_dense()


def block_losses(
    block,
    lookups,
    stacked,
    layer_terms,
    kernel: str,
    dtype: np.dtype | type = np.float64,
    secondary=None,
    stream_key: int = 0,
    occ_base: int = 0,
    profile: ActivityProfile | None = None,
    pool: ScratchBufferPool | None = None,
    backend: KernelBackend | str | None = None,
) -> np.ndarray:
    """Per-trial year losses of one fetched block (:func:`fetch_block`).

    The single place a task picks its kernel: ragged or dense, primary
    or secondary.  ``stream_key`` is the layer's multiplier stream
    (:func:`~repro.core.secondary.layer_stream_key`) and ``occ_base``
    the global occurrence index of the block's first occurrence; both
    kernels address their draws by it, so any decomposition of the
    trial space draws identical multipliers.  ``stacked``, ``pool`` and
    ``backend`` only reach the ragged kernels.
    """
    if kernel == KERNEL_RAGGED:
        ids, offs = block
        if secondary is not None:
            return layer_trial_batch_secondary_ragged(
                ids,
                offs,
                lookups,
                layer_terms,
                secondary,
                stream_key,
                stacked=stacked,
                occ_base=occ_base,
                profile=profile,
                dtype=dtype,
                pool=pool,
                backend=backend,
            )
        return layer_trial_batch_ragged(
            ids,
            offs,
            lookups,
            layer_terms,
            stacked=stacked,
            profile=profile,
            dtype=dtype,
            pool=pool,
            backend=backend,
        )
    if secondary is not None:
        return layer_trial_batch_secondary(
            block,
            lookups,
            layer_terms,
            secondary,
            stream_key,
            occ_base=occ_base,
            profile=profile,
            dtype=dtype,
        )
    return layer_trial_batch(
        block, lookups, layer_terms, profile=profile, dtype=dtype
    )


def task_losses(
    yet: YearEventTable,
    layer,
    lookups,
    stacked,
    task: PlanTask,
    kernel: str,
    dtype: np.dtype | type = np.float64,
    secondary=None,
    base_seed: int = 0,
    pool: ScratchBufferPool | None = None,
    profile: ActivityProfile | None = None,
    backend: KernelBackend | str | None = None,
) -> np.ndarray:
    """Per-trial year losses of one plan task, on the CPU kernels.

    :func:`fetch_block` + :func:`block_losses` for a single task — the
    same dispatch :func:`execute_plan_cpu` runs — so a fleet worker
    computing one segment produces bytes identical to a monolithic run
    of the containing plan.
    """
    return block_losses(
        fetch_block(yet, task.trial_start, task.trial_stop, kernel),
        lookups,
        stacked,
        layer.terms,
        kernel,
        dtype,
        secondary=secondary,
        stream_key=layer_stream_key(base_seed, layer.layer_id),
        occ_base=task.occ_start,
        profile=profile,
        pool=pool,
        backend=backend,
    )


def execute_segment_cpu(
    yet: YearEventTable,
    portfolio: Portfolio,
    catalog_size: int,
    task: PlanTask,
    kernel: str,
    lookup_kind: str = "direct",
    dtype: np.dtype | type = np.float64,
    secondary=None,
    secondary_seed=None,
    cache=None,
    pool: ScratchBufferPool | None = None,
    profile: ActivityProfile | None = None,
    backend: KernelBackend | str | None = None,
) -> np.ndarray:
    """Self-contained segment execution: tables + :func:`task_losses`.

    Returns the task's per-trial losses as ``float64`` — exactly the
    bytes a monolithic executor would write into its output row for
    this trial range, and therefore exactly what the fleet stores under
    the segment's content-addressed key.  ``backend`` selects the
    kernel backend for *this worker only*: segment keys are
    backend-free (backends are held to the oracle's bytes), so a fleet
    may mix backends per worker and still assemble digest-identical
    YLTs.
    """
    layer = portfolio.layer(task.layer_id)
    profile = profile if profile is not None else ActivityProfile()
    with profile.track(ACTIVITY_FETCH):
        lookups, stacked, _ = build_layer_tables(
            portfolio.elts_of(layer),
            catalog_size,
            lookup_kind,
            dtype,
            kernel,
            cache=cache,
        )
    base_seed = (
        resolve_secondary_seed(secondary_seed) if secondary is not None else 0
    )
    out = np.empty(task.n_trials, dtype=np.float64)
    out[:] = task_losses(
        yet,
        layer,
        lookups,
        stacked,
        task,
        kernel,
        dtype=dtype,
        secondary=secondary,
        base_seed=base_seed,
        pool=pool,
        profile=profile,
        backend=backend,
    )
    return out
