"""The emitter's wire format: qid-tagged binary tuple records (§5).

The paper's runtime "configures the emitter — specifying the fields to
extract from each packet for each query; each query is identified by a
corresponding query identifier (qid)", and the emitter "uses this
identifier to determine how to parse the remainder of the query-specific
fields embedded in the packet". This module implements that contract: a
:class:`WireCodec` is configured with each instance's field schema and
encodes/decodes tuples as compact binary records:

    record := instance_id:u16 | kind:u8 | op_index:u8 | fields...
    field  := fixed-width big-endian int          (int fields)
            | 8-byte big-endian IEEE-754 double   (float fields)
            | u16 length || bytes                 (str/bytes fields)

The simulator hands structured tuples around directly, so the codec's role
here is fidelity and testability: ``SonataRuntime(wire_check=True)``
round-trips every mirrored item through it, proving the schema
configuration is sufficient to reconstruct exactly what the stream
processor needs.

Two paths write the same bytes. :meth:`WireCodec.encode` and
:meth:`WireCodec.decode` handle one tuple; the rowwise oracle uses them.
:meth:`WireCodec.encode_batch` and :meth:`WireCodec.decode_batch` move a
whole columnar :class:`MirroredBatch` without per-row Python: int-only
records are one numpy byte matrix, and a blob-bearing record is runs of
fixed-width fields between blobs — encoded by one gather of per-row
pieces (each value that occurs packed once), decoded by one scan of
the ``u16`` lengths followed by matrix gathers of the runs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from repro.core.errors import PlanningError
from repro.exec import ColumnarState, Vocab, canonical_column
from repro.switch.mirror import MirroredBatch
from repro.switch.simulator import MirroredTuple

_KINDS = ("stream", "key_report", "overflow")


def _width_bytes(bits: int) -> int:
    return max((bits + 7) // 8, 1)


def _pack_blob(value) -> bytes:
    """``u16 length || bytes`` of one str/bytes value, as :meth:`WireCodec.encode`
    writes it (longer blobs are cut to 65,535 bytes)."""
    blob = (
        value if isinstance(value, (bytes, bytearray)) else str(value).encode("utf-8")
    )
    return struct.pack(">H", min(len(blob), 0xFFFF)) + bytes(blob[:0xFFFF])


def _run_piece(run: "list[np.ndarray]") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjacent fixed-width field matrices as one record piece: its byte
    pool, per-row starts and per-row lengths."""
    matrix = np.concatenate(run, axis=1)
    n, width = matrix.shape
    return (
        matrix.reshape(-1),
        np.arange(n, dtype=np.int64) * width,
        np.full(n, width, dtype=np.int64),
    )


@dataclass(frozen=True)
class FieldCodec:
    name: str
    kind: str  # "int" | "float" | "bytes" | "str"
    width_bytes: int  # for ints; floats are always 8


class WireCodec:
    """Encodes/decodes emitter tuples using per-instance schemas."""

    def __init__(self) -> None:
        self._by_key: dict[str, int] = {}
        self._by_id: dict[int, str] = {}
        self._schemas: dict[str, list[FieldCodec]] = {}

    # -- configuration ---------------------------------------------------
    def configure(self, instance_key: str, schema_fields: "dict[str, int | str]") -> int:
        """Register an instance's field schema; returns its id.

        Each field maps to its width in bits (a fixed-width unsigned
        integer), ``"float"`` (an 8-byte IEEE-754 double, for timestamps)
        or ``"str"``/``"bytes"`` (a length-prefixed blob that decodes to
        that type).
        """
        if instance_key in self._by_key:
            raise PlanningError(f"wire schema for {instance_key!r} already set")
        instance_id = len(self._by_key) + 1
        if instance_id > 0xFFFF:
            raise PlanningError("too many instances for a 16-bit instance id")
        codecs = []
        for name, spec in schema_fields.items():
            if spec in ("float", "str", "bytes"):
                codecs.append(FieldCodec(name, spec, 8 if spec == "float" else 0))
            else:
                codecs.append(FieldCodec(name, "int", _width_bytes(spec)))
        self._by_key[instance_key] = instance_id
        self._by_id[instance_id] = instance_key
        self._schemas[instance_key] = codecs
        return instance_id

    def schema(self, instance_key: str) -> list[FieldCodec]:
        try:
            return self._schemas[instance_key]
        except KeyError:
            raise PlanningError(f"no wire schema for {instance_key!r}") from None

    # -- encode / decode ----------------------------------------------------
    def encode(self, tup: MirroredTuple) -> bytes:
        instance_id = self._by_key.get(tup.instance)
        if instance_id is None:
            raise PlanningError(f"no wire schema for {tup.instance!r}")
        out = bytearray(
            struct.pack(
                ">HBB", instance_id, _KINDS.index(tup.kind), tup.op_index
            )
        )
        for codec in self._schemas[tup.instance]:
            if codec.name not in tup.fields:
                raise PlanningError(
                    f"tuple for {tup.instance} missing field {codec.name!r}"
                )
            value = tup.fields[codec.name]
            if codec.kind == "int":
                out += int(value).to_bytes(codec.width_bytes, "big")
            elif codec.kind == "float":
                out += struct.pack(">d", float(value))
            else:
                blob = (
                    value
                    if isinstance(value, (bytes, bytearray))
                    else str(value).encode("utf-8")
                )
                if len(blob) > 0xFFFF:
                    blob = blob[:0xFFFF]
                out += struct.pack(">H", len(blob)) + blob
        return bytes(out)

    def decode(self, record: bytes) -> MirroredTuple:
        instance_id, kind_index, op_index = struct.unpack(">HBB", record[:4])
        instance = self._by_id.get(instance_id)
        if instance is None:
            raise PlanningError(f"unknown instance id {instance_id}")
        offset = 4
        fields: dict = {}
        for codec in self._schemas[instance]:
            if codec.kind == "int":
                fields[codec.name] = int.from_bytes(
                    record[offset : offset + codec.width_bytes], "big"
                )
                offset += codec.width_bytes
            elif codec.kind == "float":
                (fields[codec.name],) = struct.unpack(
                    ">d", record[offset : offset + 8]
                )
                offset += 8
            else:
                (length,) = struct.unpack(">H", record[offset : offset + 2])
                offset += 2
                blob = record[offset : offset + length]
                offset += length
                fields[codec.name] = (
                    bytes(blob) if codec.kind == "bytes" else blob.decode("utf-8")
                )
        if offset != len(record):
            raise PlanningError(
                f"trailing bytes in record for {instance}: {len(record) - offset}"
            )
        return MirroredTuple(
            instance=instance,
            kind=_KINDS[kind_index],
            fields=fields,
            op_index=op_index,
        )

    # -- batch encode / decode -------------------------------------------
    @staticmethod
    def _int_field_bytes(col: np.ndarray, width: int) -> np.ndarray:
        """Big-endian byte matrix (n, width) for one int column.

        Bit-for-bit the bytes ``int(value).to_bytes(width, "big")``
        produces per row, including its ``OverflowError`` behaviour.
        """
        if col.dtype.kind == "f":
            col = col.astype(np.int64)  # int() truncation semantics
        if col.dtype.kind != "u" and len(col) and int(col.min()) < 0:
            raise OverflowError("can't convert negative int to unsigned")
        unsigned = col.astype(np.uint64)
        if width < 8 and len(unsigned) and int(unsigned.max()) >> (8 * width):
            raise OverflowError("int too big to convert")
        matrix = unsigned.astype(">u8").view(np.uint8).reshape(len(unsigned), 8)
        if width < 8:
            return matrix[:, 8 - width :]
        if width > 8:
            pad = np.zeros((len(unsigned), width - 8), dtype=np.uint8)
            return np.concatenate([pad, matrix], axis=1)
        return matrix

    @staticmethod
    def _float_field_bytes(col: np.ndarray) -> np.ndarray:
        """Big-endian byte matrix (n, 8) matching ``struct.pack(">d", v)``."""
        return (
            col.astype(np.float64)
            .astype(">f8")
            .view(np.uint8)
            .reshape(len(col), 8)
        )

    def _fixed_field_bytes(self, col: np.ndarray, codec: FieldCodec) -> np.ndarray:
        if codec.kind == "float":
            return self._float_field_bytes(col)
        return self._int_field_bytes(col, codec.width_bytes)

    def _blob_pieces(
        self, state: ColumnarState, name: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One str/bytes column as length-prefixed pieces of a byte pool.

        Returns ``(pool, starts, lengths)``: row i's ``u16 length || bytes``
        is ``pool[starts[i] : starts[i] + lengths[i]]``. A vocab column is
        recoded by :func:`canonical_column`, so each value that occurs is
        packed once and absent ids pack the vocabulary's empty value.
        """
        ids, values = canonical_column(state, name)
        if values is None:
            values, ids = ids.tolist(), np.arange(len(ids))
        pieces = [_pack_blob(v) for v in values]
        lengths = np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces))
        starts = np.cumsum(lengths) - lengths
        pool = np.frombuffer(b"".join(pieces), dtype=np.uint8)
        return pool, starts[ids], lengths[ids]

    def encode_batch(
        self, batch: MirroredBatch, instance_key: str | None = None
    ) -> bytes:
        """Encode a whole batch as concatenated scalar records.

        The output is bit-for-bit ``b"".join(encode(t) for t in
        batch.materialize())`` (with ``instance_key`` overriding the
        schema lookup key, like a tagged tuple would), built from columns:
        int-only schemas are one numpy byte matrix, and blob-bearing ones
        gather each record's pieces into one buffer.
        """
        key = instance_key if instance_key is not None else batch.instance
        instance_id = self._by_key.get(key)
        if instance_id is None:
            raise PlanningError(f"no wire schema for {key!r}")
        codecs = self._schemas[key]
        state = batch.state
        n = state.n_rows
        for codec in codecs:
            if codec.name not in state.columns:
                raise PlanningError(
                    f"tuple for {key} missing field {codec.name!r}"
                )
        header = struct.pack(
            ">HBB", instance_id, _KINDS.index(batch.kind), batch.op_index
        )
        run = [np.broadcast_to(np.frombuffer(header, dtype=np.uint8), (n, 4))]
        if all(c.kind in ("int", "float") for c in codecs):
            run += [self._fixed_field_bytes(state.columns[c.name], c) for c in codecs]
            return np.concatenate(run, axis=1).tobytes()
        # A blob-bearing record is a sequence of pieces: runs of fixed-width
        # bytes between length-prefixed blobs. Each piece is (pool, per-row
        # start, per-row length); one gather lays them out row by row.
        pieces: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for codec in codecs:
            if codec.kind in ("int", "float"):
                run.append(self._fixed_field_bytes(state.columns[codec.name], codec))
                continue
            if run:
                pieces.append(_run_piece(run))
                run = []
            pieces.append(self._blob_pieces(state, codec.name))
        if run:
            pieces.append(_run_piece(run))
        bases = np.cumsum([0] + [len(pool) for pool, _, _ in pieces[:-1]])
        pool = np.concatenate([pool for pool, _, _ in pieces])
        starts = np.column_stack(
            [s + base for (_, s, _), base in zip(pieces, bases)]
        ).reshape(-1)
        lengths = np.column_stack([length for _, _, length in pieces]).reshape(-1)
        # Byte j of the output comes from pool[j + (start - out_start)] of
        # the piece it falls in.
        shift = starts - (np.cumsum(lengths) - lengths)
        return pool[np.arange(int(lengths.sum())) + np.repeat(shift, lengths)].tobytes()

    @staticmethod
    def _fixed_columns(
        matrix: np.ndarray, codecs: "list[FieldCodec]"
    ) -> dict[str, np.ndarray]:
        """Int and float columns from a byte matrix holding their fields
        side by side, one record per row."""
        n = len(matrix)
        columns = {}
        offset = 0
        for codec in codecs:
            w = codec.width_bytes
            chunk = matrix[:, offset : offset + w]
            offset += w
            if codec.kind == "float":
                columns[codec.name] = (
                    np.ascontiguousarray(chunk).reshape(-1).view(">f8").astype(np.float64)
                )
                continue
            if w in (1, 2, 4):
                values = np.ascontiguousarray(chunk).view(f">u{w}").reshape(-1)
                columns[codec.name] = values.astype(np.int64)
                continue
            if w < 8:
                padded = np.zeros((n, 8), dtype=np.uint8)
                padded[:, 8 - w :] = chunk
            elif w > 8:
                if chunk[:, : w - 8].any():
                    raise PlanningError(
                        f"field {codec.name!r} exceeds 64 bits in a batch"
                    )
                padded = np.ascontiguousarray(chunk[:, w - 8 :])
            else:
                padded = np.ascontiguousarray(chunk)
            values = padded.reshape(-1).view(">u8").astype(np.uint64)
            # Keep uint64 so 8-byte fields round-trip the full range;
            # narrower fields fit comfortably in int64.
            columns[codec.name] = values if w >= 8 else values.astype(np.int64)
        return columns

    def _decode_blob_records(
        self, data: bytes, instance: str, codecs: "list[FieldCodec]"
    ) -> ColumnarState:
        """Decode a blob-bearing record stream.

        A record is runs of fixed-width fields between length-prefixed
        blobs. One scan reads only the ``u16`` lengths, noting where each
        run starts and interning each blob's bytes; the runs are then
        gathered into byte matrices and parsed like an int-only record,
        and each distinct blob is decoded once.
        """
        runs: list[list[FieldCodec]] = [[]]
        blobs: list[FieldCodec] = []
        for codec in codecs:
            if codec.kind in ("int", "float"):
                runs[-1].append(codec)
            else:
                blobs.append(codec)
                runs.append([])
        widths = [sum(c.width_bytes for c in run) for run in runs]
        widths[0] += 4  # the header opens the first run
        run_starts: list[list[int]] = [[] for _ in runs]
        interns: list[dict[bytes, int]] = [{} for _ in blobs]
        ids: list[list[int]] = [[] for _ in blobs]
        pos, end = 0, len(data)
        while pos < end:
            for j, intern in enumerate(interns):
                run_starts[j].append(pos)
                pos += widths[j] + 2
                if pos > end:
                    break
                length = data[pos - 2] << 8 | data[pos - 1]
                blob = data[pos : pos + length]
                pos += length
                idx = intern.get(blob)
                if idx is None:
                    idx = intern[blob] = len(intern)
                ids[j].append(idx)
            run_starts[-1].append(pos)
            pos += widths[-1]
        if pos != end:
            raise PlanningError(
                f"truncated record for {instance}: {pos - end} bytes short"
            )
        buf = np.frombuffer(data, dtype=np.uint8)
        fixed: dict[str, np.ndarray] = {}
        for j, (run, width, starts) in enumerate(zip(runs, widths, run_starts)):
            if not width:
                continue
            matrix = buf[np.asarray(starts)[:, None] + np.arange(width)]
            if j == 0:
                if (matrix[:, :4] != matrix[0, :4]).any():
                    raise PlanningError("mixed headers in one batch record stream")
                matrix = matrix[:, 4:]
            fixed.update(self._fixed_columns(matrix, run))
        vocabs = {
            codec.name: Vocab(
                (blob if codec.kind == "bytes" else blob.decode("utf-8") for blob in intern),
                codec.kind,
            )
            for codec, intern in zip(blobs, interns)
        }
        blob_ids = {
            codec.name: np.asarray(column, dtype=np.int64)
            for codec, column in zip(blobs, ids)
        }
        columns = {
            c.name: fixed[c.name] if c.name in fixed else blob_ids[c.name]
            for c in codecs
        }
        return ColumnarState(columns=columns, vocabs=vocabs)

    def decode_batch(
        self, data: bytes, instance_key: str | None = None
    ) -> MirroredBatch:
        """Decode concatenated records back into one columnar batch.

        All records must share one (instance, kind, op_index) header — a
        batch is homogeneous by construction. ``instance_key`` names the
        expected schema for empty inputs (no header to read).
        """
        if not data:
            if instance_key is None:
                raise PlanningError("empty batch needs an explicit schema key")
            codecs = self.schema(instance_key)
            empty_dtype = {
                "int": np.uint64,
                "float": np.float64,
            }
            columns = {
                c.name: np.empty(0, dtype=empty_dtype.get(c.kind, np.int64))
                for c in codecs
            }
            vocabs = {
                c.name: Vocab((), c.kind) for c in codecs if c.kind in ("str", "bytes")
            }
            return MirroredBatch(
                instance=instance_key,
                kind="stream",
                op_index=0,
                state=ColumnarState(columns=columns, vocabs=vocabs),
            )
        instance_id, kind_index, op_index = struct.unpack(">HBB", data[:4])
        instance = self._by_id.get(instance_id)
        if instance is None:
            raise PlanningError(f"unknown instance id {instance_id}")
        if instance_key is not None and instance != instance_key:
            raise PlanningError(
                f"batch header names {instance!r}, expected {instance_key!r}"
            )
        codecs = self._schemas[instance]
        if all(c.kind in ("int", "float") for c in codecs):
            record_len = 4 + sum(c.width_bytes for c in codecs)
            n, extra = divmod(len(data), record_len)
            if extra:
                raise PlanningError(
                    f"trailing bytes in record for {instance}: {extra}"
                )
            matrix = np.frombuffer(data, dtype=np.uint8).reshape(n, record_len)
            if (matrix[:, :4] != matrix[0, :4]).any():
                raise PlanningError("mixed headers in one batch record stream")
            state = ColumnarState(columns=self._fixed_columns(matrix[:, 4:], codecs))
        else:
            state = self._decode_blob_records(data, instance, codecs)
        return MirroredBatch(
            instance=instance,
            kind=_KINDS[kind_index],
            op_index=op_index,
            state=state,
        )
