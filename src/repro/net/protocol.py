"""The wire format: length-prefixed frames, JSON headers, CRC'd blobs.

One framing for every RPC both directions::

    frame   := magic(4) | u32 frame_len | payload(frame_len)
    payload := u32 header_len | header_json | blob_0 | blob_1 | ...

The header is a small JSON object.  Requests carry ``{"op": ..., ...}``;
responses carry ``{"ok": true, ...}`` or ``{"ok": false, "error": ...,
"kind": "bad_request" | "server_error"}``.  Binary array payloads ride
as *blobs* after the header: the header's ``"blobs"`` list records each
one's name, dtype, shape, byte length and CRC32 (the same
:func:`~repro.io.atomic.array_crc32` checksum the file store keeps on
disk), and the raw bytes follow in list order.  Decoding verifies every
CRC, so a frame damaged anywhere between the peers surfaces as a typed
:class:`WireProtocolError` — an ``OSError``, i.e. *transient* to every
retry policy in the stack — never as silently wrong numbers.

All integers are big-endian.  ``MAX_FRAME_BYTES`` bounds what either
side will buffer, so a garbled length prefix fails loudly instead of
attempting a multi-terabyte allocation.

:func:`encode_entry` / :func:`decode_entry` map a
:class:`~repro.store.base.StoreEntry` onto this shape (meta in the
header, one blob per array) — the network analogue of the file store's
``meta.json`` + ``.npy`` layout.

Batched reads (``mget``/``mcontains``) carry up to
:data:`MAX_BATCH_KEYS` keys in one frame.  An ``mget`` reply packs the
entries of a *prefix* of the requested keys
(:func:`encode_entries`: blob ``"{i}/{name}"`` holds array ``name`` of
entry ``i``) and stops once :data:`MGET_REPLY_BUDGET_BYTES` of arrays
are packed; the keys it did not reach come back as ``"deferred"`` and
the client asks for them again.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.io.atomic import array_crc32
from repro.store.base import StoreEntry

#: protocol magic + version; bump on incompatible framing changes.
MAGIC = b"RKV1"

#: refuse to buffer frames beyond this (a garbled length prefix must
#: fail loudly, not allocate).  Generous for YLT segments: 1 GiB.
MAX_FRAME_BYTES = 1 << 30

#: most keys one ``mget``/``mcontains`` frame may carry (clients chunk).
MAX_BATCH_KEYS = 256

#: array bytes after which a server stops packing an ``mget`` reply and
#: defers the remaining keys — far enough under ``MAX_FRAME_BYTES``
#: that the entry which crosses it still fits the frame.
MGET_REPLY_BUDGET_BYTES = 64 << 20

_U32 = struct.Struct(">I")


class WireProtocolError(OSError):
    """A malformed, truncated or checksum-failing frame.

    Subclasses :class:`OSError` deliberately: wire damage is transient
    to every retry policy in the stack (:data:`~repro.utils.retry.
    DEFAULT_RETRY_POLICY` retries ``OSError``), so a flipped bit on the
    wire costs a retry, never a wrong answer and never a crash path of
    its own.
    """


class RemoteServerError(OSError):
    """The server answered ``ok=false`` with ``kind="server_error"``.

    Also an ``OSError``: the server's transient failures (its disk, its
    own store tiers) should look exactly like a flaky local disk to the
    caller's retry/breaker machinery.  Client-side *usage* errors
    (``kind="bad_request"``) raise :class:`ValueError` instead and are
    never retried.
    """


def pack_message(
    header: Mapping[str, Any],
    blobs: Optional[Mapping[str, np.ndarray]] = None,
) -> bytes:
    """Serialise one message (header + named array blobs) into a frame."""
    blobs = blobs or {}
    specs: List[Dict[str, Any]] = []
    payloads: List[bytes] = []
    for name, array in blobs.items():
        data = np.ascontiguousarray(array)
        raw = data.tobytes()
        specs.append(
            {
                "name": str(name),
                "dtype": str(data.dtype.str),
                "shape": [int(n) for n in data.shape],
                "nbytes": len(raw),
                "crc32": array_crc32(data),
            }
        )
        payloads.append(raw)
    full_header = dict(header)
    if specs:
        full_header["blobs"] = specs
    header_bytes = json.dumps(full_header, sort_keys=True).encode("utf-8")
    body = b"".join([_U32.pack(len(header_bytes)), header_bytes, *payloads])
    if len(body) > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES"
        )
    return b"".join([MAGIC, _U32.pack(len(body)), body])


def read_frame_size(prefix: bytes) -> int:
    """Validate the 8-byte frame prefix; return the payload length."""
    if len(prefix) != 8:
        raise WireProtocolError(
            f"truncated frame prefix ({len(prefix)} of 8 bytes)"
        )
    if prefix[:4] != MAGIC:
        raise WireProtocolError(
            f"bad magic {prefix[:4]!r} (expected {MAGIC!r}) — not a "
            "repro-kv peer, or a corrupted stream"
        )
    (size,) = _U32.unpack(prefix[4:8])
    if size > MAX_FRAME_BYTES:
        raise WireProtocolError(
            f"declared frame of {size} bytes exceeds MAX_FRAME_BYTES"
        )
    return size


def unpack_payload(
    payload: bytes,
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Parse a frame payload into ``(header, blobs)``, verifying CRCs.

    Returned arrays are detached read-only copies — safe to hand to
    store consumers directly (the :class:`~repro.store.base.StoreEntry`
    immutability contract).
    """
    if len(payload) < 4:
        raise WireProtocolError("frame too short for a header length")
    (header_len,) = _U32.unpack(payload[:4])
    if 4 + header_len > len(payload):
        raise WireProtocolError(
            f"declared header of {header_len} bytes overruns the frame"
        )
    try:
        header = json.loads(payload[4 : 4 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise WireProtocolError(f"garbled frame header: {exc!r}") from exc
    if not isinstance(header, dict):
        raise WireProtocolError(f"frame header is not an object: {header!r}")

    blobs: Dict[str, np.ndarray] = {}
    offset = 4 + header_len
    for spec in header.pop("blobs", []):
        nbytes = int(spec["nbytes"])
        raw = payload[offset : offset + nbytes]
        if len(raw) != nbytes:
            raise WireProtocolError(
                f"blob {spec.get('name')!r} truncated on the wire "
                f"({len(raw)} of {nbytes} bytes)"
            )
        offset += nbytes
        array = np.frombuffer(raw, dtype=np.dtype(str(spec["dtype"])))
        array = array.reshape([int(n) for n in spec["shape"]]).copy()
        if array_crc32(array) != int(spec["crc32"]):
            raise WireProtocolError(
                f"blob {spec.get('name')!r} failed its CRC32 — damaged "
                "in flight"
            )
        array.flags.writeable = False
        blobs[str(spec["name"])] = array
    if offset != len(payload):
        raise WireProtocolError(
            f"{len(payload) - offset} trailing bytes after the last blob"
        )
    return header, blobs


# -- store entry codec ----------------------------------------------------


def encode_entry(
    header: Mapping[str, Any], entry: StoreEntry
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """Fold a :class:`StoreEntry` into a message: meta in the header,
    one CRC'd blob per array."""
    merged = dict(header)
    merged["meta"] = dict(entry.meta)
    merged["arrays"] = sorted(entry.arrays)
    return merged, dict(entry.arrays)


def decode_entry(
    header: Mapping[str, Any], blobs: Mapping[str, np.ndarray]
) -> StoreEntry:
    """Rebuild the :class:`StoreEntry` encoded by :func:`encode_entry`."""
    names = header.get("arrays")
    if not isinstance(names, list) or not names:
        raise WireProtocolError(f"entry frame lists no arrays: {names!r}")
    arrays = {}
    for name in names:
        array = blobs.get(str(name))
        if array is None:
            raise WireProtocolError(
                f"entry frame promises array {name!r} but carries no "
                "such blob"
            )
        arrays[str(name)] = array
    return StoreEntry(arrays=arrays, meta=dict(header.get("meta") or {}))


def encode_entries(
    entries: Sequence[Optional[StoreEntry]],
) -> Tuple[List[Dict[str, Any]], Dict[str, np.ndarray]]:
    """Fold a batch of (possibly absent) entries into one message body.

    Returns one header per entry (``{"found": false}`` or the entry's
    meta and array names) plus the blobs, named ``"{i}/{array}"``.
    """
    headers: List[Dict[str, Any]] = []
    blobs: Dict[str, np.ndarray] = {}
    for i, entry in enumerate(entries):
        if entry is None:
            headers.append({"found": False})
            continue
        header, arrays = encode_entry({"found": True}, entry)
        headers.append(header)
        for name, array in arrays.items():
            blobs[f"{i}/{name}"] = array
    return headers, blobs


def decode_batch_entry(
    i: int, header: Any, blobs: Mapping[str, np.ndarray]
) -> Optional[StoreEntry]:
    """Entry ``i`` of a batch encoded by :func:`encode_entries`."""
    if not isinstance(header, dict):
        raise WireProtocolError(f"batch entry {i} is not an object: {header!r}")
    if not header.get("found"):
        return None
    names = header.get("arrays")
    if not isinstance(names, list):
        raise WireProtocolError(f"batch entry {i} lists no arrays: {names!r}")
    own = {
        str(name): blobs[f"{i}/{name}"]
        for name in names
        if f"{i}/{name}" in blobs
    }
    return decode_entry(header, own)


def error_header(error: str, kind: str = "server_error") -> Dict[str, Any]:
    """The failure response shape both sides agree on."""
    return {"ok": False, "error": str(error), "kind": str(kind)}


def raise_for_header(header: Mapping[str, Any]) -> None:
    """Convert a failure response into the typed client-side exception.

    ``bad_request`` (malformed op, bad key, unknown state name) raises
    :class:`ValueError` — caller bugs are not transient and must never
    be retried; anything else raises :class:`RemoteServerError`, which
    the retry/breaker machinery treats exactly like local disk trouble.
    """
    if header.get("ok", False):
        return
    error = str(header.get("error", "unspecified server failure"))
    if header.get("kind") == "bad_request":
        raise ValueError(f"rejected by server: {error}")
    raise RemoteServerError(error)
