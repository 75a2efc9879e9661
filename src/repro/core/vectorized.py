"""The vectorised trial-batch kernel — the shared numerical core.

All five implementations in :mod:`repro.engines` perform the same four
steps per (layer, trial); they differ in *where the data lives and how the
work is scheduled*.  This module provides the step arithmetic on a dense
``(n_trials, n_events)`` block so every engine computes identical numbers
and only the orchestration (threading, chunking, simulated devices)
differs — mirroring how the paper's C++/OpenMP/CUDA variants share one
kernel body.

Activities are charged to an :class:`~repro.utils.timer.ActivityProfile`
with the paper's Figure 6 categories: event fetch, loss lookup, financial
terms, layer terms.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.secondary import SecondaryUncertainty
from repro.core.terms import (
    apply_aggregate_terms_cumulative,
    apply_occurrence_terms,
)
from repro.data.catalog import NULL_EVENT_ID
from repro.data.layer import LayerTerms, Portfolio
from repro.data.yet import YearEventTable
from repro.data.ylt import YearLossTable
from repro.lookup.base import LossLookup
from repro.utils.rng import SeedLike
from repro.utils.timer import (
    ACTIVITY_FINANCIAL,
    ACTIVITY_LAYER,
    ACTIVITY_LOOKUP,
    ActivityProfile,
)


def layer_trial_batch(
    event_matrix: np.ndarray,
    lookups: Sequence[LossLookup],
    layer_terms: LayerTerms,
    profile: ActivityProfile | None = None,
    dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """Steps 1–4 of Algorithm 1 over a dense trial block for one layer.

    Parameters
    ----------
    event_matrix:
        ``(n_trials, n_events)`` event-id block (0 = padding).
    lookups:
        One lookup structure per covered ELT; each carries its ELT's
        financial terms.
    layer_terms:
        The layer's occurrence/aggregate XL terms.
    profile:
        Optional activity profile to charge wall-clock time against.
    dtype:
        Working precision of the accumulation (``float32`` reproduces the
        paper's reduced-precision GPU optimisation).

    Returns
    -------
    numpy.ndarray
        1-D ``(n_trials,)`` year losses in ``float64``.
    """
    return _dense_layer_losses(event_matrix, lookups, layer_terms, profile, dtype)


def layer_trial_batch_secondary(
    event_matrix: np.ndarray,
    lookups: Sequence[LossLookup],
    layer_terms: LayerTerms,
    uncertainty: SecondaryUncertainty,
    stream_key: int,
    occ_base: int = 0,
    profile: ActivityProfile | None = None,
    dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """:func:`layer_trial_batch` with per-(occurrence, ELT) draws.

    The same sampler as the fused ragged kernel
    (:func:`~repro.core.kernels.layer_trial_batch_secondary_ragged`): one
    :meth:`~repro.core.secondary.SecondaryUncertainty.multipliers_for_span`
    block over the block's global occurrences ``[occ_base, occ_base +
    n_occ)``, whose row ``r`` scales ELT ``r``'s gross losses before its
    financial terms apply.  The padded matrix holds the occurrences in
    flat CSR order once its padding (event id 0) is masked out, so a
    pair's multiplier depends only on ``(stream_key, global occurrence,
    ELT)`` — never on how the trial space was cut into blocks.
    """
    if occ_base < 0:
        raise ValueError(f"occ_base must be >= 0, got {occ_base}")
    return _dense_layer_losses(
        event_matrix,
        lookups,
        layer_terms,
        profile,
        dtype,
        uncertainty=uncertainty,
        stream_key=stream_key,
        occ_base=occ_base,
    )


def _dense_layer_losses(
    event_matrix: np.ndarray,
    lookups: Sequence[LossLookup],
    layer_terms: LayerTerms,
    profile: ActivityProfile | None,
    dtype: np.dtype | type,
    uncertainty: SecondaryUncertainty | None = None,
    stream_key: int = 0,
    occ_base: int = 0,
) -> np.ndarray:
    """The one dense loop behind both public kernels."""
    profile = profile if profile is not None else ActivityProfile()
    matrix = np.asarray(event_matrix)
    if matrix.ndim != 2:
        raise ValueError(f"event_matrix must be 2-D, got shape {matrix.shape}")
    work_dtype = np.dtype(dtype)

    multipliers = None
    if uncertainty is not None:
        with profile.track(ACTIVITY_FINANCIAL):
            mask = matrix != NULL_EVENT_ID
            n_occ = int(np.count_nonzero(mask))
            multipliers = uncertainty.multipliers_for_span(
                stream_key,
                occ_base,
                occ_base + n_occ,
                len(lookups),
                out=np.empty((len(lookups), n_occ), dtype=work_dtype),
            )

    # Steps 1+2 (lines 4–14): per-occurrence losses, combined across ELTs.
    combined = np.zeros(matrix.shape, dtype=work_dtype)
    for row, lookup in enumerate(lookups):
        with profile.track(ACTIVITY_LOOKUP):
            gross = lookup.lookup(matrix)
        with profile.track(ACTIVITY_FINANCIAL):
            if multipliers is not None:
                gross[mask] *= multipliers[row]
            net = lookup.terms.apply(gross)
            combined += net.astype(work_dtype, copy=False)

    # Steps 3+4 (lines 15–29): occurrence terms, cumulative aggregation.
    with profile.track(ACTIVITY_LAYER):
        occ = apply_occurrence_terms(combined, layer_terms, out=combined)
        totals = occ.sum(axis=1, dtype=np.float64)
        year = apply_aggregate_terms_cumulative(totals, layer_terms)
    return year


def run_vectorized(
    yet: YearEventTable,
    portfolio: Portfolio,
    catalog_size: int,
    lookup_kind: str = "direct",
    dtype: np.dtype | type = np.float64,
    batch_trials: int | None = None,
    profile: ActivityProfile | None = None,
    secondary: SecondaryUncertainty | None = None,
    secondary_seed: SeedLike = None,
) -> YearLossTable:
    """Full analysis with the vectorised kernel, batched over trials.

    ``batch_trials`` bounds peak memory: the dense event block and the
    per-ELT gather results are ``batch x max_events`` arrays.  The default
    (all trials in one batch) is fastest when it fits.

    ``secondary`` (a :class:`~repro.core.secondary.SecondaryUncertainty`)
    switches every batch to :func:`layer_trial_batch_secondary`, whose
    draws are keyed by ``secondary_seed`` and the global occurrence
    index, so ``batch_trials`` never changes the multiplier a pair
    receives.

    Like :func:`~repro.core.kernels.run_ragged`, this is a single-slot
    :class:`~repro.plan.planner.Planner` plan executed by
    :func:`~repro.plan.execute.execute_plan_cpu`.
    """
    # Deferred: repro.plan imports this module's kernels.
    from repro.core.kernels import KERNEL_DENSE
    from repro.plan.execute import execute_plan_cpu
    from repro.plan.planner import EngineCapabilities, Planner
    from repro.plan.scheduler import Scheduler

    caps = EngineCapabilities(
        engine="run-vectorized",
        n_slots=1,
        kernel=KERNEL_DENSE,
        batch_trials=max(
            1, int(yet.n_trials if batch_trials is None else batch_trials)
        ),
        dtype=np.dtype(dtype).str,
        secondary=secondary is not None,
    )
    plan = Planner().plan(yet, portfolio, caps)
    return execute_plan_cpu(
        yet,
        portfolio,
        catalog_size,
        plan,
        lookup_kind=lookup_kind,
        dtype=dtype,
        secondary=secondary,
        secondary_seed=secondary_seed,
        profile=profile,
        scheduler=Scheduler(max_workers=1),
    )
