"""Pinned hash values: the identities persisted stores depend on.

Every literal below was recorded from the implementation that wrote
them and must never change by accident.  FileStore directories and
remote servers hold entries under segment keys; sweep ids and plan
fingerprints name queued work and manifests.  A rewrite of
:func:`~repro.utils.rng.stable_hash_seed` or of the key derivation
that shifts any of these values silently orphans every stored segment
(a full recompute, and a second copy on disk), so a change here must
be deliberate — bump the schema (``SEGMENT_SCHEMA``) instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.secondary import SecondaryUncertainty
from repro.data.generator import generate_workload
from repro.data.presets import BENCH_SMALL
from repro.plan.planner import EngineCapabilities, Planner
from repro.store.keys import (
    SEGMENT_SCHEMA,
    fingerprint_digest,
    layer_fingerprint,
    secondary_fingerprint,
    segment_key,
    segment_keys,
    yet_slice_fingerprint,
)
from repro.utils.rng import stable_hash_seed

SEED_PINS = [
    ((), 1469598103934665603),
    ((0,), 5187598658539770339),
    ((1,), 2955283251572180930),
    ((-1,), 2514413813199299675),
    ((2**63 - 1,), 2514273075710888667),
    ((-(2**63),), 5187739396028181347),
    (("",), 1469598103934665603),
    (("", ""), 1469598103934665603),
    (("a",), 4953267810257967366),
    (("secondary-quantile-table", 4096), 8596909336111595814),
    (("secondary-layer", 7, -3), 4086484750708856334),
    ((42, "tile", 0), 5215221615325870741),
    (("é∑✓",), 8048413902804059647),
    ((123456789, -987654321, "x" * 300), 8751019482927555591),
    (tuple(range(-50, 50)), 1626928116088231283),
    (tuple(str(i) for i in range(64)), 5166491714652790891),
    ((True, False, 3), 1346695532765371937),
    (
        tuple((i * 2654435761) % (2**40) - 2**39 for i in range(200)),
        4346248550391150704,
    ),
    (("mixed", 0, "", -7, "tail"), 8713026545562883358),
    ((np.int64(5), np.int32(-5), "np"), 6664311005767042404),
]


@pytest.mark.parametrize(
    "parts, expected", SEED_PINS, ids=[str(i) for i in range(len(SEED_PINS))]
)
def test_stable_hash_seed_pinned(parts, expected):
    assert stable_hash_seed(*parts) == expected


def _numpy_fnv1a(*parts) -> int:
    """The uint64-scalar formulation the int version must equal."""
    acc = np.uint64(1469598103934665603)
    prime = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        for part in parts:
            if isinstance(part, str):
                data = part.encode("utf-8")
            else:
                data = int(part).to_bytes(8, "little", signed=True)
            for byte in data:
                acc = np.uint64(acc ^ np.uint64(byte)) * prime
    return int(acc & np.uint64(0x7FFF_FFFF_FFFF_FFFF))


def test_stable_hash_seed_matches_the_uint64_reference():
    rng = np.random.default_rng(5)
    for _ in range(50):
        parts = [
            int(v) if rng.random() < 0.6 else f"p{int(v)}"
            for v in rng.integers(-(2**62), 2**62, size=rng.integers(0, 9))
        ]
        assert stable_hash_seed(*parts) == _numpy_fnv1a(*parts)


def test_stable_hash_seed_rejects_out_of_range_ints():
    with pytest.raises(OverflowError):
        stable_hash_seed(2**63)


SPEC = BENCH_SMALL.with_(
    name="pin",
    n_trials=600,
    events_per_trial=20,
    catalog_size=3_000,
    losses_per_elt=300,
    elts_per_layer=3,
    n_layers=2,
)
VAR_SPEC = SPEC.with_(name="pin-var", fixed_event_count=False)
SECONDARY = SecondaryUncertainty(3.0, 5.0)
SECONDARY_SEED = 20131124

#: (workload, kernel, dtype, lookup, secondary, stride) ->
#: (last segment key, plan fingerprint, delta fingerprint, n segments)
KEY_PINS = [
    (
        ("fixed", "ragged", "<f8", "direct", False, None),
        (
            "7f7e668f9cadfe88f87a75eab99f811c66b61d5f320a39e77a032f5b0d494939",
            5238894223780424390,
            "c415bbeadc8c3be1486099ea1f65193050b65ccc2554f6bc7452ae87f3ec4fdd",
            6,
        ),
    ),
    (
        ("fixed", "ragged", "<f8", "direct", False, 97),
        (
            "d3280fa12a46e4f18bcd6154a81479006a67142421fe3a78d64ffb09154b1b41",
            5046806318088332334,
            "3a3571a302fc4988ce3b75863404d1f879a5edc90440bc1dd140951066d2dabd",
            14,
        ),
    ),
    (
        ("fixed", "ragged", "<f8", "direct", False, 250),
        (
            "e724450f2f2fb92f5751fe8a36bd35a04f178060954672c48b4e104f63b8d190",
            4991665698570590254,
            "6dd8b8403553acb50b21401e3ea4cd8a2af741c8f9bb423582eda2b35ed3403f",
            6,
        ),
    ),
    (
        ("fixed", "dense", "<f8", "direct", False, 250),
        (
            "f06adcb663cd2a8cf83eee82eb60cbcec01ea6ce1d68cb019f0042bebf695167",
            7707523537315367591,
            "afcf1ba049023a3ad1af508dda3fedd521bd519e13ec003fce58c6e5888f2f57",
            6,
        ),
    ),
    (
        ("fixed", "ragged", "<f4", "direct", False, 97),
        (
            "9cbcacbef1c71ca3bd15a9120c561de9490acc02dfc5a80a040d2c9b4d674155",
            5046806318088332334,
            "9e65c752958c698baffec8fd92f4fadeba57c0bbeeddcdc1b7a756f6192ebd1c",
            14,
        ),
    ),
    (
        ("fixed", "ragged", "<f8", "sorted", False, 250),
        (
            "dec142fd015e1bf38cf9254e900772af2bd07c449d9b236122637529682a962d",
            4991665698570590254,
            "d92da66fbcabf362a1eaaa812087a56f8398fff9ce1731ec20f899a5e229cdc3",
            6,
        ),
    ),
    (
        ("fixed", "ragged", "<f8", "direct", True, None),
        (
            "67b33c390e2b86f98b47987ad0273d8e9d8e9861e9c6fbb7c13de652b7e08dc3",
            5238894223780424390,
            "4bbb5e62db1db957b3602a815b77b92740d799cde5070b2d53d3eec8f6ac66eb",
            6,
        ),
    ),
    (
        ("fixed", "ragged", "<f8", "direct", True, 97),
        (
            "e727b5a98b16b61102deb53821833b3c1da07d2c5bd048a8a1007f67e6fa2395",
            5046806318088332334,
            "f04086da7b189f33f9e9b3139692ccd978c3e7d3035446504251b07d2f8e451a",
            14,
        ),
    ),
    (
        ("fixed", "dense", "<f4", "sorted", True, 250),
        (
            "18f31668e14e4fe49ac75049faf65cb7e6598bde8fa0fc34cff45328b6b47f2c",
            7707523537315367591,
            "3d84bf75c84af9243023f0f1ee99b5c2cc5586485d83c01685e1b4456ce6ca66",
            6,
        ),
    ),
    (
        ("var", "ragged", "<f8", "direct", False, 97),
        (
            "082869840366e61162881a76e3bf4044f3566fd5498d21b98998d16539f160f7",
            771471062327970596,
            "91134f74d5690d4121bdcb9d2d9fec0ad4cae2ff0520370e9e906408321a8010",
            14,
        ),
    ),
    (
        ("var", "ragged", "<f4", "direct", True, 250),
        (
            "466e8fecf721431fae03cc36f357adcf5fea05bcc20b0d56201162a4024c2f26",
            1381481052635716908,
            "2809f7600dd99a5fd3e4cd7e3fce41f6b9898d8e13537bb28e797af2689a0080",
            6,
        ),
    ),
    (
        ("var", "dense", "<f8", "sorted", True, None),
        (
            "7e982b87dd0a2daced63a1aefb5236ddf4dee03dbbdde4dff15db671df628acd",
            6769038754762704861,
            "4a980f7e04d07435f73b14a6411377fd2f1fe47e60803e1af00e0b6b98bdfa28",
            6,
        ),
    ),
]


@pytest.fixture(scope="module")
def workloads():
    return {
        "fixed": generate_workload(SPEC),
        "var": generate_workload(VAR_SPEC),
    }


def _delta(workloads, config):
    name, kernel, dtype, lookup, secondary, stride = config
    workload = workloads[name]
    caps = EngineCapabilities(
        n_slots=3, kernel=kernel, dtype=dtype, secondary=secondary
    )
    delta = Planner().plan_missing(
        workload.yet,
        workload.portfolio,
        caps,
        None,
        lookup_kind=lookup,
        secondary=SECONDARY if secondary else None,
        secondary_seed=SECONDARY_SEED,
        segment_trials=stride,
    )
    return workload, delta


@pytest.mark.parametrize(
    "config, expected",
    KEY_PINS,
    ids=["-".join(str(c) for c in config) for config, _ in KEY_PINS],
)
def test_segment_keys_and_fingerprints_pinned(workloads, config, expected):
    _, delta = _delta(workloads, config)
    last_key, plan_fp, delta_fp, n_segments = expected
    assert len(delta.segments) == n_segments
    assert delta.segments[-1].key == last_key
    assert delta.plan.fingerprint() == plan_fp
    assert delta.fingerprint() == delta_fp


@pytest.mark.parametrize("config", [KEY_PINS[1][0], KEY_PINS[10][0]])
def test_single_segment_key_matches_the_batch(workloads, config):
    """``segment_key`` is ``segment_keys`` of one task: same bytes."""
    workload, delta = _delta(workloads, config)
    _, kernel, dtype, lookup, secondary, _ = config
    shared = dict(
        kernel=kernel,
        dtype=dtype,
        lookup_kind=lookup,
        secondary=SECONDARY if secondary else None,
        secondary_seed=SECONDARY_SEED,
    )
    tasks = [record.task for record in delta.segments]
    batch = segment_keys(
        workload.yet,
        workload.portfolio,
        [(t.layer_id, t.trial_start, t.trial_stop, t.occ_start) for t in tasks],
        **shared,
    )
    assert batch == [record.key for record in delta.segments]
    stream_fp = secondary_fingerprint(SECONDARY, SECONDARY_SEED)
    for task, key in zip(tasks, batch):
        assert key == segment_key(
            workload.yet,
            workload.portfolio,
            task.layer_id,
            task.trial_start,
            task.trial_stop,
            task.occ_start,
            **shared,
        )
        # the spliced bytes equal the plain canonical serialisation
        assert key == fingerprint_digest(
            SEGMENT_SCHEMA,
            kernel,
            yet_slice_fingerprint(
                workload.yet, task.trial_start, task.trial_stop
            ),
            layer_fingerprint(
                workload.portfolio, workload.portfolio.layer(task.layer_id)
            ),
            str(np.dtype(dtype).str),
            lookup,
            (kernel, stream_fp, task.occ_start) if secondary else None,
        )


def test_fingerprints_are_computed_once(workloads):
    _, delta = _delta(workloads, KEY_PINS[1][0])
    assert delta.fingerprint() is delta.fingerprint()
    assert delta.plan.fingerprint() is delta.plan.fingerprint()
