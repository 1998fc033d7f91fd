"""Record model and pluggable value codecs shared by every storage engine.

A record is a key plus a JSON-encodable value.  Engines never interpret the
value; CrowdData's cache layer decides what goes inside (task descriptors,
task-run lists, lineage entries).

Values cross the engine boundary through a :class:`Codec`.  Two codecs ship:

* :class:`JsonCodec` (``"json"``) — the historical strict compact-JSON text
  codec, still the default.
* :class:`BinaryCodec` (``"binary"``) — a compact length-prefixed binary
  format (msgpack-style one-byte tags for str/int/float/bool/None/list/dict)
  that skips JSON text parsing on the hot path.

Both codecs normalise values identically on the JSON-value domain — in
particular non-string dict keys are coerced to strings exactly the way
``json.dumps`` coerces them — so engines stay one behavioural equivalence
class regardless of codec.  Values outside that domain raise
:class:`repro.exceptions.StorageError` at write time rather than corrupting
the database.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Any, Union

from repro.exceptions import StorageError

EncodedValue = Union[str, bytes]

#: The one strict compact-JSON encoder: ``json.dumps`` with these arguments
#: would build an identical ``JSONEncoder`` per record.
_encode_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(frozen=True)
class Record:
    """A single stored record.

    Attributes:
        key: Unique key within its table.
        value: JSON-encodable payload.
        version: Monotonically increasing per-key version, maintained by the
            engine on every put.
    """

    key: str
    value: Any
    version: int = 1

    def bump(self, new_value: Any) -> "Record":
        """Return a new record with *new_value* and an incremented version."""
        return Record(key=self.key, value=new_value, version=self.version + 1)


class Codec:
    """Serialises record values to durable bytes/text and back.

    Subclasses must round-trip every JSON-encodable value to a value equal to
    what :class:`JsonCodec` round-trips it to, so that the choice of codec is
    invisible above :class:`repro.storage.engine.StorageEngine`.
    """

    #: Short identifier recorded in each engine's meta for rediscovery.
    name: str = "abstract"

    def encode(self, value: Any) -> EncodedValue:
        raise NotImplementedError

    def decode(self, data: EncodedValue) -> Any:
        raise NotImplementedError

    def encode_many(self, values: list) -> list:
        """Batch-encode *values*; the ``put_many`` hot path calls this."""
        encode = self.encode
        return [encode(value) for value in values]

    def decode_many(self, datas: list) -> list:
        """Batch-decode *datas*; the ``get_many``/scan hot path calls this."""
        decode = self.decode
        return [decode(data) for data in datas]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class JsonCodec(Codec):
    """The historical strict compact-JSON text codec (the default)."""

    name = "json"

    def encode(self, value: Any) -> str:
        try:
            return _encode_json(value)
        except (TypeError, ValueError) as exc:
            raise StorageError(f"value is not JSON-encodable: {exc}") from exc

    def decode(self, data: EncodedValue) -> Any:
        if isinstance(data, bytes):
            # A BLOB under a json codec means the store was written binary.
            raise StorageError(
                "stored value is binary but the engine codec is 'json'"
            )
        try:
            return json.loads(data)
        except (TypeError, ValueError) as exc:
            raise StorageError(f"stored value is not valid JSON: {exc}") from exc


# Binary format: one tag byte, then a payload.  Containers carry a varint
# element count; strings and ints a varint byte length (unsigned LEB128 —
# one byte for anything under 128, so short strings and small containers
# pay one prefix byte, not four).
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_LIST = b"L"
_TAG_DICT = b"M"

_F64 = struct.Struct(">d")


def _write_varint(buffer: bytearray, value: int) -> None:
    while value > 0x7F:
        buffer.append((value & 0x7F) | 0x80)
        value >>= 7
    buffer.append(value)


def _read_varint(data: bytes, offset: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            return result, offset
        shift += 7


def _json_key(key: Any) -> str:
    """Coerce a dict key to a string exactly as ``json.dumps`` does."""
    if isinstance(key, str):
        return key
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    if isinstance(key, float):
        return _json_float_text(key)
    raise TypeError(
        f"keys must be str, int, float, bool or None, not {type(key).__name__}"
    )


def _json_float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == float("-inf"):
        return "-Infinity"
    return float.__repr__(value)


class BinaryCodec(Codec):
    """Compact length-prefixed binary codec.

    Equivalent to :class:`JsonCodec` on the JSON-value domain: dict keys are
    coerced to strings with the same rules (and mixed-type keys raise the
    same :class:`StorageError` ``json.dumps(sort_keys=True)`` would), so a
    value round-tripped through either codec compares equal.
    """

    name = "binary"

    def encode(self, value: Any) -> bytes:
        buffer = bytearray()
        try:
            self._write(buffer, value)
        except (TypeError, ValueError) as exc:
            raise StorageError(f"value is not JSON-encodable: {exc}") from exc
        return bytes(buffer)

    def encode_many(self, values: list) -> list:
        # One shared buffer for the whole batch: a single growing bytearray
        # then zero-copy slicing, instead of one allocation dance per value.
        buffer = bytearray()
        offsets = [0]
        try:
            for value in values:
                self._write(buffer, value)
                offsets.append(len(buffer))
        except (TypeError, ValueError) as exc:
            raise StorageError(f"value is not JSON-encodable: {exc}") from exc
        view = memoryview(buffer)
        return [bytes(view[offsets[i] : offsets[i + 1]]) for i in range(len(values))]

    def _write(self, buffer: bytearray, value: Any) -> None:
        if value is None:
            buffer += _TAG_NONE
        elif value is True:
            buffer += _TAG_TRUE
        elif value is False:
            buffer += _TAG_FALSE
        elif isinstance(value, str):
            raw = value.encode("utf-8")
            buffer += _TAG_STR
            _write_varint(buffer, len(raw))
            buffer += raw
        elif isinstance(value, int):
            raw = value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)
            buffer += _TAG_INT
            _write_varint(buffer, len(raw))
            buffer += raw
        elif isinstance(value, float):
            buffer += _TAG_FLOAT
            buffer += _F64.pack(value)
        elif isinstance(value, (list, tuple)):
            buffer += _TAG_LIST
            _write_varint(buffer, len(value))
            for item in value:
                self._write(buffer, item)
        elif isinstance(value, dict):
            # Sort by the *original* keys, mirroring json.dumps(sort_keys=
            # True): mixed str/int keys raise TypeError there and here.
            items = sorted(value.items()) if value else []
            buffer += _TAG_DICT
            _write_varint(buffer, len(items))
            for key, item in items:
                raw = _json_key(key).encode("utf-8")
                _write_varint(buffer, len(raw))
                buffer += raw
                self._write(buffer, item)
        else:
            raise TypeError(
                f"Object of type {type(value).__name__} is not JSON serializable"
            )

    def decode(self, data: EncodedValue) -> Any:
        if isinstance(data, str):
            raise StorageError(
                "stored value is JSON text but the engine codec is 'binary'"
            )
        try:
            value, offset = self._read(data, 0)
        except (IndexError, ValueError, struct.error, UnicodeDecodeError) as exc:
            raise StorageError(f"stored value is not valid binary: {exc}") from exc
        if offset != len(data):
            raise StorageError(
                f"stored value has {len(data) - offset} trailing bytes"
            )
        return value

    def _read(self, data: bytes, offset: int) -> tuple[Any, int]:
        tag = data[offset : offset + 1]
        if not tag:
            raise ValueError("truncated value: missing tag")
        offset += 1
        if tag == _TAG_NONE:
            return None, offset
        if tag == _TAG_TRUE:
            return True, offset
        if tag == _TAG_FALSE:
            return False, offset
        if tag == _TAG_STR:
            length, offset = _read_varint(data, offset)
            end = offset + length
            if end > len(data):
                raise ValueError("truncated string payload")
            return data[offset:end].decode("utf-8"), end
        if tag == _TAG_INT:
            length, offset = _read_varint(data, offset)
            end = offset + length
            if end > len(data):
                raise ValueError("truncated int payload")
            return int.from_bytes(data[offset:end], "big", signed=True), end
        if tag == _TAG_FLOAT:
            (value,) = _F64.unpack_from(data, offset)
            return value, offset + 8
        if tag == _TAG_LIST:
            count, offset = _read_varint(data, offset)
            items = []
            for _ in range(count):
                item, offset = self._read(data, offset)
                items.append(item)
            return items, offset
        if tag == _TAG_DICT:
            count, offset = _read_varint(data, offset)
            result = {}
            for _ in range(count):
                length, offset = _read_varint(data, offset)
                end = offset + length
                if end > len(data):
                    raise ValueError("truncated dict key")
                key = data[offset:end].decode("utf-8")
                item, offset = self._read(data, end)
                result[key] = item
            return result, offset
        raise ValueError(f"unknown tag byte {tag!r}")


#: Codec registry keyed by the name recorded in engine meta.
CODECS: dict[str, Codec] = {
    JsonCodec.name: JsonCodec(),
    BinaryCodec.name: BinaryCodec(),
}

DEFAULT_CODEC_NAME = JsonCodec.name


def resolve_codec(codec: Union[str, Codec, None]) -> Codec:
    """Return the :class:`Codec` for *codec* (name, instance, or None)."""
    if codec is None:
        return CODECS[DEFAULT_CODEC_NAME]
    if isinstance(codec, Codec):
        return codec
    try:
        return CODECS[codec]
    except KeyError:
        raise StorageError(
            f"unknown codec {codec!r}; expected one of {sorted(CODECS)}"
        ) from None


class RecordCodec:
    """Backwards-compatible static facade over the default JSON codec.

    Pre-codec-seam code (and a few validation-only call sites) use
    ``RecordCodec.encode``/``decode`` as static helpers; they remain the
    strict-JSON behaviour.
    """

    @staticmethod
    def encode(value: Any) -> str:
        """Serialise *value* to compact JSON text."""
        return CODECS["json"].encode(value)

    @staticmethod
    def decode(text: str) -> Any:
        """Deserialise JSON *text* back into a Python value."""
        return CODECS["json"].decode(text)
