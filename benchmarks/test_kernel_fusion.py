"""Kernel-fusion microbenchmark: fused ragged CSR vs legacy dense kernel.

Runs both kernel paths on the ``BENCH_SMALL``-shaped workload and writes
a ``BENCH_kernels.json`` artifact next to this file so later PRs can
track the fused path's trajectory (wall-clock ratio and peak
intermediate memory) across the repository's history.

The guard assertions are deliberately loose on time (CI machines are
noisy) and strict on memory (pool accounting is deterministic).
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.backends import available_backends, get_backend
from repro.core.kernels import dense_intermediate_bytes, run_ragged
from repro.core.secondary import SecondaryUncertainty
from repro.core.vectorized import run_vectorized
from repro.utils.bufpool import ScratchBufferPool

ARTIFACT = Path(__file__).resolve().parent / "BENCH_kernels.json"
REPEATS = 5

#: pinned occurrence-chunk cache budget: the artifact tracks numbers
#: across machines/PRs, so the measurement geometry must not float with
#: the host's detected L2 size.
PINNED_L2_BYTES = 1 * 2**20


@pytest.fixture(scope="module", autouse=True)
def pinned_l2_budget():
    old = os.environ.get("REPRO_L2_CACHE_BYTES")
    os.environ["REPRO_L2_CACHE_BYTES"] = str(PINNED_L2_BYTES)
    yield
    if old is None:
        os.environ.pop("REPRO_L2_CACHE_BYTES", None)
    else:
        os.environ["REPRO_L2_CACHE_BYTES"] = old


def _best_seconds(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.fixture(scope="module")
def fusion_rows(workload, spec):
    """Measure both kernels once per dtype; shared by the tests below."""
    yet, portfolio = workload.yet, workload.portfolio
    catalog = workload.catalog.n_events
    rows = []
    for dtype_label, dtype in (("float64", np.float64), ("float32", np.float32)):
        itemsize = np.dtype(dtype).itemsize
        run_vectorized(yet, portfolio, catalog, dtype=dtype)  # warm cache
        dense_s = _best_seconds(
            lambda: run_vectorized(yet, portfolio, catalog, dtype=dtype)
        )
        pool = ScratchBufferPool()
        run_ragged(yet, portfolio, catalog, dtype=dtype, pool=pool)  # warm pool
        ragged_s = _best_seconds(
            lambda: run_ragged(yet, portfolio, catalog, dtype=dtype, pool=pool)
        )
        rows.append(
            {
                "dtype": dtype_label,
                "dense_seconds": dense_s,
                "ragged_seconds": ragged_s,
                "speedup": dense_s / ragged_s,
                "dense_peak_intermediate_bytes": dense_intermediate_bytes(
                    yet.n_trials, yet.max_events_per_trial, itemsize
                ),
                "ragged_peak_intermediate_bytes": pool.peak_bytes,
                "lookups_per_second_ragged": spec.n_lookups / ragged_s,
            }
        )
    return rows


@pytest.fixture(scope="module")
def backend_rows(workload, spec):
    """KERNEL-BACKENDS: the fused ragged pass per kernel backend.

    One row per (backend, dtype) with the speedup over the numpy
    oracle's ragged time measured in the same process.  On a numpy-only
    install this is a single-backend table — the artifact's shape is
    stable either way, so the CI floor below can key off it.
    """
    yet, portfolio = workload.yet, workload.portfolio
    catalog = workload.catalog.n_events
    rows = []
    for dtype_label, dtype in (("float64", np.float64), ("float32", np.float32)):
        numpy_s = None
        for name in sorted(available_backends()):
            backend = get_backend(name)
            pool = ScratchBufferPool()
            run_ragged(
                yet, portfolio, catalog, dtype=dtype, pool=pool, backend=backend
            )  # warm pool + JIT compile
            seconds = _best_seconds(
                lambda: run_ragged(
                    yet,
                    portfolio,
                    catalog,
                    dtype=dtype,
                    pool=pool,
                    backend=backend,
                )
            )
            if name == "numpy":
                numpy_s = seconds
            rows.append(
                {
                    "backend": name,
                    "compiled": bool(backend.compiled),
                    "dtype": dtype_label,
                    "ragged_seconds": seconds,
                }
            )
        for row in rows:
            if row["dtype"] == dtype_label:
                row["speedup_vs_numpy"] = numpy_s / row["ragged_seconds"]
    return rows


@pytest.fixture(scope="module")
def secondary_rows(workload, spec):
    """KERNEL-ABLATE-SECONDARY: dense vs fused ragged secondary kernel."""
    yet, portfolio = workload.yet, workload.portfolio
    catalog = workload.catalog.n_events
    su = SecondaryUncertainty(4.0, 4.0)
    rows = []
    for dtype_label, dtype in (("float64", np.float64), ("float32", np.float32)):
        itemsize = np.dtype(dtype).itemsize
        run_vectorized(
            yet, portfolio, catalog, dtype=dtype, secondary=su, secondary_seed=42
        )  # warm cache
        dense_s = _best_seconds(
            lambda: run_vectorized(
                yet,
                portfolio,
                catalog,
                dtype=dtype,
                secondary=su,
                secondary_seed=42,
            )
        )
        pool = ScratchBufferPool()
        run_ragged(
            yet,
            portfolio,
            catalog,
            dtype=dtype,
            pool=pool,
            secondary=su,
            secondary_seed=42,
        )  # warm pool + quantile table
        ragged_s = _best_seconds(
            lambda: run_ragged(
                yet,
                portfolio,
                catalog,
                dtype=dtype,
                pool=pool,
                secondary=su,
                secondary_seed=42,
            )
        )
        rows.append(
            {
                "dtype": dtype_label,
                "dense_seconds": dense_s,
                "ragged_seconds": ragged_s,
                "speedup": dense_s / ragged_s,
                "dense_peak_intermediate_bytes": dense_intermediate_bytes(
                    yet.n_trials,
                    yet.max_events_per_trial,
                    itemsize,
                    secondary=True,
                    n_elts=max(layer.n_elts for layer in portfolio.layers),
                ),
                "ragged_peak_intermediate_bytes": pool.peak_bytes,
            }
        )
    return rows


@pytest.fixture(scope="module")
def artifact_data(fusion_rows, secondary_rows, backend_rows, workload, spec):
    yet = workload.yet
    artifact = {
        "benchmark": "kernel_fusion",
        "workload": spec.name,
        "n_trials": yet.n_trials,
        "n_occurrences": yet.n_occurrences,
        "repeats": REPEATS,
        "pinned_l2_bytes": PINNED_L2_BYTES,
        "rows": fusion_rows,
        "secondary_rows": secondary_rows,
        "backend_rows": backend_rows,
        "backends_available": sorted(available_backends()),
    }
    ARTIFACT.write_text(json.dumps(artifact, indent=2) + "\n")
    return artifact


def test_artifact_written(artifact_data):
    data = json.loads(ARTIFACT.read_text())
    assert data["benchmark"] == "kernel_fusion"
    assert len(data["rows"]) == 2
    assert len(data["secondary_rows"]) == 2
    # One backend row per (available backend, dtype); numpy is always
    # available, so the table is never empty.
    assert len(data["backend_rows"]) == 2 * len(data["backends_available"])
    assert "numpy" in data["backends_available"]


def test_compiled_backend_speedup_floor(backend_rows):
    """CI floor: the numba-compiled fused pass must beat the numpy
    ragged oracle by >= 1.3x on BENCH_SMALL (the issue's acceptance
    bar).  Skips, loudly, when no compiled backend is installed — the
    tier-1 matrix runs numpy-only on purpose; the compiled-bench CI job
    installs ``repro[compiled]`` and enforces this."""
    compiled = [r for r in backend_rows if r["backend"] == "numba"]
    if not compiled:
        pytest.skip("numba not installed: compiled speedup floor not enforced")
    for row in compiled:
        assert row["speedup_vs_numpy"] >= 1.3, row


@pytest.mark.parametrize("dtype_label", ["float64", "float32"])
def test_ragged_not_slower_than_dense(fusion_rows, dtype_label):
    row = next(r for r in fusion_rows if r["dtype"] == dtype_label)
    # Typically ~2-3x faster; 1.05 slack absorbs scheduler noise without
    # letting a real regression (ratio < 1) through.
    assert row["ragged_seconds"] <= row["dense_seconds"] * 1.05, row


@pytest.mark.parametrize("dtype_label", ["float64", "float32"])
def test_ragged_peak_memory_halved(fusion_rows, dtype_label):
    row = next(r for r in fusion_rows if r["dtype"] == dtype_label)
    assert (
        row["ragged_peak_intermediate_bytes"] * 2
        <= row["dense_peak_intermediate_bytes"]
    ), row


@pytest.mark.parametrize("dtype_label", ["float64", "float32"])
def test_secondary_ragged_not_slower_than_dense(secondary_rows, dtype_label):
    """CI regression guard: the fused secondary path must never fall
    below 1.0x over dense secondary.  Both draw from the same sampler;
    the fused path wins by gathering and scaling in cache-sized chunks
    instead of padded full-batch blocks."""
    row = next(r for r in secondary_rows if r["dtype"] == dtype_label)
    assert row["speedup"] >= 1.0, row


@pytest.mark.parametrize("dtype_label", ["float64", "float32"])
def test_secondary_ragged_peak_memory_lower(secondary_rows, dtype_label):
    """The fused secondary path samples into pooled scratch: no dense
    multiplier matrix, so peak intermediates stay below the dense
    secondary path's."""
    row = next(r for r in secondary_rows if r["dtype"] == dtype_label)
    assert (
        row["ragged_peak_intermediate_bytes"]
        <= row["dense_peak_intermediate_bytes"]
    ), row
