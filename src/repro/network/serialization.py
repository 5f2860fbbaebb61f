"""Deterministic binary serialization for protocol payloads.

Communication-cost numbers in the benchmarks are *measured* off this
encoding, so it is designed to be an honest proxy for a real wire format:

* integers take ``O(bit_length)`` bytes (a masked 64-bit value costs ~9
  bytes; a 2048-bit Paillier ciphertext costs ~260 -- the gap the T-EDIT
  experiment quantifies),
* containers add small constant framing,
* numpy arrays ship raw buffers plus a dtype/shape header.

The format is self-describing (one tag byte per value) and round-trips
exactly; :func:`deserialize` rejects trailing garbage, which doubles as a
tamper check in tests.

Fast paths
----------
The protocols' O(n^2) payloads are flat lists of Python ints (masked
vectors, comparison-matrix rows), so integer *runs* get batched
implementations: :func:`_encode_int_run` assembles every record of a run
through fixed-width numpy views grouped by magnitude width, and
:func:`_decode_int_run` walks record boundaries once and batch-converts
the bodies the same way.  Both emit/consume the exact bytes of the
per-element :func:`_encode_int` path (the equivalence suite pins this),
and :func:`serialized_size` prices any payload without materializing a
buffer.

The alphanumeric protocol's payload is the other hot shape: lists of
small arrays that share one dtype and shape (one intermediary CCM per
string pair).  Every record of such a run carries the same header -- tag,
dtype, shape, body length -- so :func:`_encode_array_run` writes the
header into every row of one ``uint8`` block and the bodies beside it in
one copy, and :func:`_decode_array_run` decodes the first record through
:func:`_decode`, checks every later header against it in one array
comparison bounded by the buffer end, and copies the bodies out as one
tensor.  Speculation stops at the first header that differs; the generic
path decodes that record (raising where it would have raised) and
re-anchors the next run, so corrupt or ragged lists fail and succeed
exactly as they would record by record.  A record whose successor's
header differs (most records of a CCM row over strings of many lengths)
costs one bytes comparison beyond its generic decode.

``_FAST_PATHS`` exists so :func:`repro.crypto.reference.scalar_transport`
can replay the seed codec for transcript-equality tests and benchmarks.

Array bodies are little-endian on the wire whatever the array's byte
order in memory; native arrays on little-endian hosts encode exactly as
before.  Decoding refuses containers nested deeper than
:data:`MAX_DEPTH`, so a hostile frame cannot exhaust the interpreter's
recursion limit.
"""

from __future__ import annotations

import struct
from typing import Any

import numpy as np

from repro.exceptions import ChannelError

_TAG_NONE = b"N"
_TAG_INT = b"I"
_TAG_FLOAT = b"F"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_LIST = b"L"
_TAG_TUPLE = b"T"
_TAG_DICT = b"D"
_TAG_ARRAY = b"A"
_TAG_BOOL = b"b"

_ALLOWED_DTYPES = {"uint8", "int8", "int32", "int64", "uint32", "uint64", "float32", "float64"}

#: Native dtype -> wire name.  ``np.dtype.name`` is computed in Python on
#: every access, at a cost of microseconds -- more than copying a CCM's
#: body -- so the encoder looks native dtypes up here instead.
_DTYPE_NAMES = {np.dtype(name): name for name in _ALLOWED_DTYPES}

#: Batched integer-run codec on/off switch.  Production always runs with
#: fast paths; the scalar-transport context manager flips this to replay
#: the seed's per-element encode/decode for equivalence testing.
_FAST_PATHS = True

#: Largest magnitude that the batched run codec handles in a ``uint64``
#: lane; rarer, wider values inside a run are spliced in per element.
_U64_MAX = (1 << 64) - 1

#: Deepest container nesting :func:`deserialize` accepts (the top-level
#: value is depth 0).  The deepest real payload is a CCM message, dict ->
#: list -> list -> array -> shape tuple -> int, five levels down; a frame
#: nested past this bound is refused with :class:`ChannelError` long
#: before the decoder's recursion could exhaust the interpreter stack.
MAX_DEPTH = 32


def _pack_length(value: int) -> bytes:
    return struct.pack(">I", value)


def _encode_int(value: int) -> bytes:
    """One integer's wire bytes: tag, sign byte, 4-byte length, magnitude."""
    sign = b"\x01" if value < 0 else b"\x00"
    magnitude = abs(value)
    body = magnitude.to_bytes((magnitude.bit_length() + 7) // 8 or 1, "big")
    return _TAG_INT + sign + _pack_length(len(body)) + body


def _int_body_len(magnitude: int) -> int:
    """Bytes of an encoded int's magnitude body (minimum 1)."""
    return (magnitude.bit_length() + 7) // 8 or 1


def _encode_int_run(values: list[Any], out: list[bytes]) -> bool:
    """Append the concatenated :func:`_encode_int` bytes of an int run.

    Returns ``False`` (appending nothing) unless every element is a
    plain ``int`` -- the same predicate the per-element fast path used.
    Records are assembled in one preallocated ``uint8`` buffer: tag,
    sign and length lanes by fancy-indexed stores, magnitude bodies by
    width-grouped big-endian views; magnitudes beyond 64 bits (rare --
    only a masked value that overflowed its mask width) are encoded per
    element and spliced into their slots.
    """
    n = len(values)
    mags = np.empty(n, dtype=np.uint64)
    signs = np.zeros(n, dtype=np.uint8)
    wide: list[int] = []
    for i, value in enumerate(values):
        if type(value) is not int:
            return False
        if value < 0:
            signs[i] = 1
            value = -value
        if value > _U64_MAX:
            wide.append(i)
            mags[i] = 0
        else:
            mags[i] = value
    nbytes = np.ones(n, dtype=np.int64)
    for threshold in range(8, 64, 8):
        nbytes += mags >= np.uint64(1 << threshold)
    for i in wide:
        nbytes[i] = _int_body_len(abs(values[i]))
    record_len = nbytes + 6
    offsets = np.zeros(n, dtype=np.int64)
    np.cumsum(record_len[:-1], out=offsets[1:])
    buf = np.zeros(int(offsets[-1] + record_len[-1]), dtype=np.uint8)
    buf[offsets] = 0x49  # _TAG_INT
    buf[offsets + 1] = signs
    # Length field bytes 2..4 stay zero for the uint64 lanes (body <= 8
    # bytes); wide records are patched wholesale below.
    buf[offsets + 5] = nbytes.astype(np.uint8)
    big_endian = mags.astype(">u8").view(np.uint8).reshape(n, 8)
    narrow = np.ones(n, dtype=bool)
    narrow[wide] = False
    for width in np.unique(nbytes[narrow]) if n > len(wide) else ():
        width = int(width)
        idx = np.flatnonzero(narrow & (nbytes == width))
        positions = offsets[idx, None] + 6 + np.arange(width)
        buf[positions] = big_endian[idx, 8 - width :]
    for i in wide:
        record = _encode_int(values[i])
        start = int(offsets[i])
        buf[start : start + len(record)] = np.frombuffer(record, dtype=np.uint8)
    out.append(buf.tobytes())
    return True


def _wire_dtype(dtype: np.dtype) -> np.dtype:
    """The little-endian twin of ``dtype``: array bodies' wire byte order."""
    return dtype.newbyteorder("<")


def _array_header(array: np.ndarray) -> bytes:
    """An array record's bytes before its body: tag, dtype, shape, length."""
    dtype_name = _DTYPE_NAMES.get(array.dtype) or array.dtype.name
    if dtype_name not in _ALLOWED_DTYPES:
        raise ChannelError(f"unsupported array dtype {dtype_name!r}")
    head = [_TAG_ARRAY]
    _encode(dtype_name, head)
    _encode(tuple(int(d) for d in array.shape), head)
    head.append(_pack_length(array.nbytes))
    return b"".join(head)


def _encode_array_run(arrays: list[np.ndarray], out: list[bytes]) -> None:
    """Append the records of ``arrays`` (one dtype, one shape) as one buffer.

    The bytes equal the per-element encoding: every row of a
    ``(len(arrays), header + body)`` block gets the shared header, and
    the bodies -- each array in C order, little-endian -- are copied in
    by one concatenation.
    """
    first = arrays[0]
    header = _array_header(first)
    block = np.empty((len(arrays), len(header) + first.nbytes), dtype=np.uint8)
    block[:, : len(header)] = np.frombuffer(header, dtype=np.uint8)
    bodies = np.concatenate(arrays, axis=None).astype(_wire_dtype(first.dtype), copy=False)
    block[:, len(header) :] = bodies.view(np.uint8).reshape(len(arrays), first.nbytes)
    out.append(block.tobytes())


def _encode_array_runs(items: list[Any], out: list[bytes]) -> None:
    """Encode a list's elements, batching each run of same-dtype,
    same-shape arrays through :func:`_encode_array_run`."""
    start, n = 0, len(items)
    while start < n:
        first = items[start]
        end = start + 1
        if type(first) is np.ndarray:
            dtype, shape = first.dtype, first.shape
            while (
                end < n
                and type(items[end]) is np.ndarray
                and items[end].dtype == dtype
                and items[end].shape == shape
            ):
                end += 1
        if end - start > 1:
            _encode_array_run(items[start:end], out)
        else:
            _encode(first, out)
        start = end


def _encode(obj: Any, out: list[bytes]) -> None:
    if obj is None:
        out.append(_TAG_NONE)
    elif isinstance(obj, (bool, np.bool_)):
        out.append(_TAG_BOOL)
        out.append(b"\x01" if obj else b"\x00")
    elif isinstance(obj, int):
        out.append(_encode_int(obj))
    elif isinstance(obj, float):
        out.append(_TAG_FLOAT)
        out.append(struct.pack(">d", obj))
    elif isinstance(obj, str):
        body = obj.encode("utf-8")
        out.append(_TAG_STR)
        out.append(_pack_length(len(body)))
        out.append(body)
    elif isinstance(obj, bytes):
        out.append(_TAG_BYTES)
        out.append(_pack_length(len(obj)))
        out.append(obj)
    elif isinstance(obj, list):
        out.append(_TAG_LIST)
        out.append(_pack_length(len(obj)))
        # Fast paths for the protocols' hot payloads (masked vectors and
        # comparison-matrix rows are flat lists of Python ints, CCM rows
        # lists of equal-shape arrays); both emit byte-identical output
        # to the generic recursion.  The non-batched branches keep the
        # seed's per-element code so the scalar-transport baseline is the
        # honest seed implementation, not a strawman.
        if not obj:
            pass
        elif _FAST_PATHS and type(obj[0]) is int and _encode_int_run(obj, out):
            pass
        elif _FAST_PATHS and type(obj[0]) is np.ndarray:
            _encode_array_runs(obj, out)
        elif all(type(item) is int for item in obj):
            out.append(b"".join(map(_encode_int, obj)))
        else:
            for item in obj:
                _encode(item, out)
    elif isinstance(obj, tuple):
        out.append(_TAG_TUPLE)
        out.append(_pack_length(len(obj)))
        for item in obj:
            _encode(item, out)
    elif isinstance(obj, dict):
        out.append(_TAG_DICT)
        out.append(_pack_length(len(obj)))
        for key in obj:  # insertion order: deterministic for a given dict
            if not isinstance(key, str):
                raise ChannelError(f"dict keys must be str, got {type(key).__name__}")
            _encode(key, out)
            _encode(obj[key], out)
    elif isinstance(obj, np.ndarray):
        out.append(_array_header(obj))
        out.append(obj.astype(_wire_dtype(obj.dtype), copy=False).tobytes())
    elif isinstance(obj, (np.integer,)):
        _encode(int(obj), out)
    elif isinstance(obj, (np.floating,)):
        _encode(float(obj), out)
    else:
        raise ChannelError(f"cannot serialize value of type {type(obj).__name__}")


class _Reader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._u8: np.ndarray | None = None

    def u8(self) -> np.ndarray:
        """The whole buffer as a read-only ``uint8`` array (made once)."""
        if self._u8 is None:
            self._u8 = np.frombuffer(self._data, dtype=np.uint8)
        return self._u8

    def take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            raise ChannelError(
                f"truncated message: needed {count} byte(s) at offset "
                f"{self._pos} but only {len(self._data) - self._pos} of "
                f"{len(self._data)} remain"
            )
        chunk = self._data[self._pos : self._pos + count]
        self._pos += count
        return chunk

    def length(self) -> int:
        return int(struct.unpack(">I", self.take(4))[0])

    @property
    def exhausted(self) -> bool:
        return self._pos == len(self._data)


#: Minimum run of same-width records worth a vectorized chunk; below it
#: the numpy call overhead loses to the scalar record walk.
_VECTOR_RUN_MIN = 32

#: Maximum records validated per speculative chunk.  Headers past the
#: first width change are validated but not consumed, so an uncapped
#: chunk would re-validate the whole remaining run after every break --
#: O(n^2 / run_length) on long payloads.  256 sits near the expected
#: run length of 64-bit masked values (a narrower record every ~256),
#: bounding wasted validation to about one chunk per break.
_VECTOR_CHUNK_MAX = 256


def _decode_int_run(reader: _Reader, count: int) -> list[Any]:
    """Decode up to ``count`` consecutive ``I`` records from the reader.

    The hot payloads encode near-uniform record widths (a 64-bit-masked
    value is 8 body bytes with probability 255/256), so the decoder
    speculates that the records ahead share the width of the current
    one: it validates a whole strided chunk of headers with five array
    comparisons and batch-converts the bodies through one big-endian
    view, re-anchoring at the first mismatch.  Runs that keep breaking
    the speculation fall back to the scalar walk, so heterogeneous lists
    never pay the numpy overhead per record.  Every record body is
    validated against the buffer end -- a declared count with a
    truncated tail raises ``ChannelError("truncated message")`` instead
    of misparsing -- and decoding stops at the first non-``I`` record,
    leaving the remainder to the generic decoder, exactly like the
    scalar path.
    """
    data = reader._data
    pos = reader._pos
    end = len(data)
    items: list[Any] = []
    # Decaying mean of records consumed per chunk; heterogeneous-width
    # payloads drive it down and hand the remainder to the tight scalar
    # walk, so they never pay numpy overhead per record.
    chunk_yield = float(_VECTOR_CHUNK_MAX)
    header_cols = np.array([0, 2, 3, 4, 5])
    while len(items) < count and pos + 6 <= end and data[pos] == 0x49:  # b"I"
        if data[pos + 2] == 0 and data[pos + 3] == 0 and data[pos + 4] == 0:
            width = data[pos + 5]
        else:
            width = int.from_bytes(data[pos + 2 : pos + 6], "big")
        body_end = pos + 6 + width
        if body_end > end:
            raise ChannelError(
                f"truncated message: integer record at offset {pos} declares "
                f"a {width}-byte body ending at {body_end} but the buffer "
                f"holds only {end} byte(s)"
            )
        stride = 6 + width
        possible = min(count - len(items), (end - pos) // stride, _VECTOR_CHUNK_MAX)
        if width <= 8 and possible >= _VECTOR_RUN_MIN:
            block = reader.u8()[pos : pos + stride * possible].reshape(possible, stride)
            # One gathered comparison validates tag and length of every
            # speculated header (bytes 0 and 2..5; byte 1 is the sign).
            headers_ok = (
                block[:, header_cols]
                == np.array([0x49, 0, 0, 0, width], dtype=np.uint8)
            ).all(axis=1)
            if headers_ok.all():
                good = possible
            else:
                # The record at ``pos`` is already validated, so the
                # chunk always advances by at least one record.
                good = max(int(np.argmin(headers_ok)), 1)
            lanes = np.zeros((good, 8), dtype=np.uint8)
            lanes[:, 8 - width :] = block[:good, 6:]
            chunk = lanes.view(">u8")[:, 0].tolist()
            for i in np.flatnonzero(block[:good, 1] == 1).tolist():
                chunk[i] = -chunk[i]
            items.extend(chunk)
            pos += stride * good
            chunk_yield = 0.75 * chunk_yield + 0.25 * good
            if chunk_yield < _VECTOR_RUN_MIN / 2:
                reader._pos = pos
                items.extend(_decode_int_run_scalar(reader, count - len(items)))
                return items
        else:
            value = int.from_bytes(data[pos + 6 : body_end], "big")
            items.append(-value if data[pos + 1] == 1 else value)
            pos = body_end
    reader._pos = pos
    return items


def _decode_int_run_scalar(reader: _Reader, count: int) -> list[Any]:
    """The seed's per-element integer-run loop (scalar-transport mode)."""
    data = reader._data
    pos = reader._pos
    end = len(data)
    items: list[Any] = []
    while len(items) < count and pos + 6 <= end and data[pos] == 0x49:  # b"I"
        body_len = int.from_bytes(data[pos + 2 : pos + 6], "big")
        body_end = pos + 6 + body_len
        if body_end > end:
            raise ChannelError(
                f"truncated message: integer record at offset {pos} declares "
                f"a {body_len}-byte body ending at {body_end} but the buffer "
                f"holds only {end} byte(s)"
            )
        value = int.from_bytes(data[pos + 6 : body_end], "big")
        items.append(-value if data[pos + 1] == 1 else value)
        pos = body_end
    reader._pos = pos
    return items


def _decode_array_run(reader: _Reader, count: int, depth: int) -> list[np.ndarray]:
    """Decode up to ``count`` consecutive array records sharing one header.

    The record at the reader (tag ``A``) is decoded by :func:`_decode`,
    which validates it in full.  Records after it that repeat its header
    byte for byte parse to the same dtype and shape, so one comparison
    over a strided block checks every header that fits in the buffer,
    and the bodies up to the first mismatch are copied out as one
    tensor.  The caller decodes the mismatching record generically.
    Each returned array is writable and owns no part of the frame.
    """
    start = reader._pos
    first = _decode(reader, depth)
    items = [first]
    stride = reader._pos - start
    header_len = stride - first.nbytes
    data, pos = reader._data, reader._pos
    possible = min(count - 1, (len(data) - pos) // stride)
    # In a ragged list the next header usually differs; one bytes
    # comparison settles that before any array is built.
    if possible <= 0 or data[pos : pos + header_len] != data[start : start + header_len]:
        return items
    u8 = reader.u8()
    block = u8[pos : pos + possible * stride].reshape(possible, stride)
    same = (block[:, :header_len] == u8[start : start + header_len]).all(axis=1)
    good = possible if same.all() else int(np.argmin(same))
    tensor = (
        block[:good, header_len:]
        .view(_wire_dtype(first.dtype))
        .reshape((good, *first.shape))
        .astype(first.dtype)
    )
    if first.ndim:
        items.extend(tensor)
    else:
        items.extend(tensor[i, ...] for i in range(good))
    reader._pos += good * stride
    return items


def _decode(reader: _Reader, depth: int = 0) -> Any:
    if depth > MAX_DEPTH:
        raise ChannelError(
            f"payload nests containers more than {MAX_DEPTH} levels deep"
        )
    tag = reader.take(1)
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_BOOL:
        return reader.take(1) == b"\x01"
    if tag == _TAG_INT:
        negative = reader.take(1) == b"\x01"
        body = reader.take(reader.length())
        value = int.from_bytes(body, "big")
        return -value if negative else value
    if tag == _TAG_FLOAT:
        return float(struct.unpack(">d", reader.take(8))[0])
    if tag == _TAG_STR:
        body = reader.take(reader.length())
        try:
            return body.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ChannelError(f"string body is not valid UTF-8: {exc.reason}") from None
    if tag == _TAG_BYTES:
        return reader.take(reader.length())
    if tag == _TAG_LIST:
        count = reader.length()
        # Fast path mirroring the encoder's: a run of plain integers is
        # parsed with batched slicing instead of per-element recursion.
        # The scalar branch is the seed's in-place loop, kept as the
        # honest baseline for the scalar-transport replay.
        depth += 1
        if not _FAST_PATHS:
            items = _decode_int_run_scalar(reader, count)
            items.extend(_decode(reader, depth) for _ in range(count - len(items)))
            return items
        items = _decode_int_run(reader, count)
        data = reader._data
        while len(items) < count:
            if reader._pos < len(data) and data[reader._pos] == 0x41:  # b"A"
                items.extend(_decode_array_run(reader, count - len(items), depth))
            else:
                items.append(_decode(reader, depth))
        return items
    if tag == _TAG_TUPLE:
        return tuple(_decode(reader, depth + 1) for _ in range(reader.length()))
    if tag == _TAG_DICT:
        count = reader.length()
        result = {}
        for _ in range(count):
            key = _decode(reader, depth + 1)
            if not isinstance(key, str):
                raise ChannelError(f"dict keys must be str, got {type(key).__name__}")
            result[key] = _decode(reader, depth + 1)
        return result
    if tag == _TAG_ARRAY:
        dtype_name = _decode(reader, depth + 1)
        if not isinstance(dtype_name, str) or dtype_name not in _ALLOWED_DTYPES:
            raise ChannelError(f"unsupported array dtype {str(dtype_name)[:32]!r}")
        shape = _decode(reader, depth + 1)
        if not isinstance(shape, tuple) or not all(
            type(dim) is int and dim >= 0 for dim in shape
        ):
            raise ChannelError(
                f"array shape must be a tuple of ints >= 0, got {type(shape).__name__}"
            )
        raw = reader.take(reader.length())
        dtype = np.dtype(dtype_name)
        try:
            return np.frombuffer(raw, dtype=_wire_dtype(dtype)).reshape(shape).astype(dtype)
        except ValueError:
            raise ChannelError(
                f"{len(raw)} byte(s) do not fill a {len(shape)}-dim "
                f"{dtype_name} array of the declared shape"
            ) from None
    raise ChannelError(f"unknown serialization tag {tag!r}")


def serialize(obj: Any) -> bytes:
    """Encode a payload into deterministic bytes."""
    out: list[bytes] = []
    _encode(obj, out)
    return b"".join(out)


def deserialize(data: bytes) -> Any:
    """Inverse of :func:`serialize`; rejects trailing bytes."""
    reader = _Reader(data)
    value = _decode(reader)
    if not reader.exhausted:
        raise ChannelError("trailing bytes after payload")
    return value


#: Length-prefix header size of a socket frame (big-endian u32).
FRAME_HEADER_LEN = 4

#: Upper bound on one frame's body.  A real session's largest payload is
#: a full comparison matrix (megabytes at most); a header past this cap
#: means the stream desynchronised or a peer is garbage, and the
#: connection should be torn down instead of allocating gigabytes.
MAX_FRAME_BODY = 1 << 30


def encode_frame(obj: Any) -> bytes:
    """One socket frame: 4-byte big-endian length prefix + payload bytes.

    This is the unit the socket transports write to a connection; the
    payload is the deterministic :func:`serialize` encoding, so framing
    adds exactly :data:`FRAME_HEADER_LEN` bytes and nothing else.
    """
    body = serialize(obj)
    if len(body) > MAX_FRAME_BODY:
        raise ChannelError(
            f"frame body of {len(body)} bytes exceeds the "
            f"{MAX_FRAME_BODY}-byte cap"
        )
    return _pack_length(len(body)) + body


def frame_body_length(header: bytes, cap: int = MAX_FRAME_BODY) -> int:
    """Decode a frame's length prefix into its body byte count.

    Socket readers call this on exactly :data:`FRAME_HEADER_LEN` bytes;
    a short header (peer died mid-frame) or a length beyond ``cap`` (the
    stream desynchronised, or a peer not yet trusted declares more than
    its stage of the protocol can send) raises :class:`ChannelError` so
    the transport treats the connection as broken rather than misparsing
    or allocating the declared body.
    """
    if len(header) != FRAME_HEADER_LEN:
        raise ChannelError(
            f"frame header must be {FRAME_HEADER_LEN} byte(s), "
            f"got {len(header)}"
        )
    length = int(struct.unpack(">I", header)[0])
    if length > cap:
        raise ChannelError(
            f"frame header declares a {length}-byte body, beyond the "
            f"{cap}-byte cap; stream is desynchronised"
        )
    return length


def decode_frame(data: bytes) -> Any:
    """Inverse of :func:`encode_frame` for a complete buffered frame."""
    body_len = frame_body_length(data[:FRAME_HEADER_LEN])
    body = data[FRAME_HEADER_LEN:]
    if len(body) != body_len:
        raise ChannelError(
            f"frame declares a {body_len}-byte body but carries {len(body)}"
        )
    return deserialize(body)


def serialized_size(obj: Any) -> int:
    """Wire size of a payload in bytes (what cost accounting charges).

    Computed structurally, without materializing the buffer -- cost
    probes over O(n^2) payloads pay for arithmetic, not allocation.
    Always equals ``len(serialize(obj))`` (property-tested), including
    the :class:`ChannelError` cases.
    """
    if obj is None:
        return 1
    if isinstance(obj, (bool, np.bool_)):
        return 2
    if isinstance(obj, int):
        return 6 + _int_body_len(abs(obj))
    if isinstance(obj, float):
        return 9
    if isinstance(obj, str):
        return 5 + len(obj.encode("utf-8"))
    if isinstance(obj, bytes):
        return 5 + len(obj)
    if isinstance(obj, list):
        if obj and all(type(item) is int for item in obj):
            return 5 + 6 * len(obj) + sum(_int_body_len(abs(v)) for v in obj)
        return 5 + sum(serialized_size(item) for item in obj)
    if isinstance(obj, tuple):
        return 5 + sum(serialized_size(item) for item in obj)
    if isinstance(obj, dict):
        total = 5
        for key in obj:
            if not isinstance(key, str):
                raise ChannelError(f"dict keys must be str, got {type(key).__name__}")
            total += serialized_size(key) + serialized_size(obj[key])
        return total
    if isinstance(obj, np.ndarray):
        if obj.dtype.name not in _ALLOWED_DTYPES:
            raise ChannelError(f"unsupported array dtype {obj.dtype.name!r}")
        shape = tuple(int(d) for d in obj.shape)
        return (
            1
            + serialized_size(obj.dtype.name)
            + serialized_size(shape)
            + 4
            + obj.size * obj.itemsize
        )
    if isinstance(obj, np.integer):
        return serialized_size(int(obj))
    if isinstance(obj, np.floating):
        return 9
    raise ChannelError(f"cannot serialize value of type {type(obj).__name__}")
