"""Golden-YLT regression net: pinned digests for every configuration.

The PR 3 hash-diff check — run every engine x kernel x secondary
configuration on a seeded preset and compare YLT hashes against the
previous revision — made permanent: the digests live in
``tests/golden_ylt.json`` and any future refactor that changes a single
bit of any configuration's output fails here, even if it would slip
through the tolerance-based equivalence tests.

Determinism scope: digests pin *exact float bit patterns*, which are
stable for a given NumPy major.minor (distribution sampling such as the
Beta quantile table is allowed to change between NumPy feature
releases).  The golden file records the NumPy version it was generated
under; on a different major.minor the suite skips rather than cry wolf
— the in-container tier-1 run (and any CI lane matching the recorded
version) always enforces it.

Regenerate after an *intentional* numerics change with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_golden_ylt.py

and commit the updated ``golden_ylt.json`` alongside the change that
explains it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.analysis import AggregateRiskAnalysis
from repro.core.secondary import SecondaryUncertainty
from repro.store.keys import ylt_digest

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_ylt.json"
UPDATE_ENV = "REPRO_UPDATE_GOLDEN"

SECONDARY_SEED = 20130812

#: engines with machine-dependent default decompositions are pinned, so
#: every host runs the same plans (a default worker/device count follows
#: the host's cores).
ENGINE_OPTIONS = {
    "sequential": {},
    "multicore": {"n_cores": 4},
    "gpu": {},
    "gpu-optimized": {},
    "multi-gpu": {"n_devices": 4},
}

CONFIGS = [
    (engine, kernel, secondary)
    for engine in ENGINE_OPTIONS
    for kernel in ("ragged", "dense")
    for secondary in (False, True)
]


def config_id(engine: str, kernel: str, secondary: bool) -> str:
    return f"{engine}|{kernel}|{'secondary' if secondary else 'primary'}"


def run_config(workload, engine: str, kernel: str, secondary: bool):
    ara = AggregateRiskAnalysis(
        workload.portfolio,
        workload.catalog.n_events,
        kernel=kernel,
        secondary=SecondaryUncertainty(4.0, 4.0) if secondary else None,
        secondary_seed=SECONDARY_SEED if secondary else None,
    )
    return ara.run(
        workload.yet, engine=engine, **ENGINE_OPTIONS[engine]
    )


def numpy_tag() -> str:
    return ".".join(np.__version__.split(".")[:2])


@pytest.fixture(scope="module")
def golden():
    if not GOLDEN_PATH.is_file():
        if os.environ.get(UPDATE_ENV):
            return None  # update mode will create it
        pytest.fail(
            f"{GOLDEN_PATH} is missing - run with {UPDATE_ENV}=1 to "
            "generate it"
        )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def computed_digests(small_workload):
    return {
        config_id(*config): ylt_digest(run_config(small_workload, *config).ylt)
        for config in CONFIGS
    }


def test_golden_file_covers_every_config(golden, computed_digests):
    if os.environ.get(UPDATE_ENV):
        GOLDEN_PATH.write_text(
            json.dumps(
                {
                    "numpy": numpy_tag(),
                    "workload": "tests/conftest.py::SMALL_SPEC",
                    "digests": computed_digests,
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        pytest.skip(f"golden digests regenerated at {GOLDEN_PATH}")
    assert set(golden["digests"]) == set(computed_digests)


@pytest.mark.parametrize(
    "config", CONFIGS, ids=[config_id(*c) for c in CONFIGS]
)
def test_ylt_digest_matches_golden(golden, computed_digests, config):
    if os.environ.get(UPDATE_ENV):
        pytest.skip("update mode: digests regenerated, not compared")
    if golden["numpy"] != numpy_tag():
        pytest.skip(
            f"golden digests pinned under numpy {golden['numpy']}, "
            f"running {numpy_tag()} (float sampling streams may differ)"
        )
    key = config_id(*config)
    assert computed_digests[key] == golden["digests"][key], (
        f"{key}: YLT bytes changed - if intentional, regenerate with "
        f"{UPDATE_ENV}=1 and justify in the commit"
    )


#: engines sharing a working precision: float64 by default, float32 for
#: the optimised GPU engines (the paper's reduced-precision optimisation).
DTYPE_CLASSES = {
    "float64": ("sequential", "multicore", "gpu"),
    "float32": ("gpu-optimized", "multi-gpu"),
}


@pytest.mark.parametrize("dtype_class", sorted(DTYPE_CLASSES))
def test_digests_agree_within_dtype_class(computed_digests, dtype_class):
    """Decomposition invariance, digest-strength: for every kernel x
    secondary combination, engines of one working precision return
    byte-identical YLTs."""
    for kernel in ("ragged", "dense"):
        for secondary in (False, True):
            digests = {
                engine: computed_digests[config_id(engine, kernel, secondary)]
                for engine in DTYPE_CLASSES[dtype_class]
            }
            assert len(set(digests.values())) == 1, (kernel, secondary, digests)
