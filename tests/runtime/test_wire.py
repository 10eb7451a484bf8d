"""Tests for the emitter wire format."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.errors import PlanningError
from repro.core.fields import FIELDS
from repro.exec import ColumnarState, Vocab, materialize_rows
from repro.runtime.wire import WireCodec
from repro.switch.mirror import MirroredBatch
from repro.switch.simulator import MirroredTuple


def make_codec():
    codec = WireCodec()
    codec.configure(
        "q1.s0@0-32",
        {"ipv4.dIP": 32, "count": 64, "payload": "bytes", "dns.rr.name": "str"},
    )
    return codec


class TestCodec:
    def test_roundtrip(self):
        codec = make_codec()
        tup = MirroredTuple(
            instance="q1.s0@0-32",
            kind="key_report",
            fields={
                "ipv4.dIP": 0x0A000001,
                "count": 12345678901,
                "payload": b"zorro\x00\xff",
                "dns.rr.name": "a.b.example.com",
            },
            op_index=3,
        )
        decoded = codec.decode(codec.encode(tup))
        assert decoded == tup

    def test_empty_payload(self):
        codec = make_codec()
        tup = MirroredTuple(
            instance="q1.s0@0-32",
            kind="stream",
            fields={"ipv4.dIP": 0, "count": 0, "payload": b"", "dns.rr.name": ""},
            op_index=0,
        )
        assert codec.decode(codec.encode(tup)) == tup

    def test_unknown_instance_rejected(self):
        codec = make_codec()
        tup = MirroredTuple("ghost", "stream", {}, 0)
        with pytest.raises(PlanningError):
            codec.encode(tup)

    def test_missing_field_rejected(self):
        codec = make_codec()
        tup = MirroredTuple("q1.s0@0-32", "stream", {"ipv4.dIP": 1}, 0)
        with pytest.raises(PlanningError):
            codec.encode(tup)

    def test_duplicate_schema_rejected(self):
        codec = make_codec()
        with pytest.raises(PlanningError):
            codec.configure("q1.s0@0-32", {"x": 8})

    def test_trailing_garbage_rejected(self):
        codec = make_codec()
        tup = MirroredTuple(
            "q1.s0@0-32", "stream",
            {"ipv4.dIP": 1, "count": 2, "payload": b"", "dns.rr.name": ""}, 0,
        )
        record = codec.encode(tup) + b"\x00"
        with pytest.raises(PlanningError):
            codec.decode(record)

    def test_records_are_compact(self):
        codec = make_codec()
        tup = MirroredTuple(
            "q1.s0@0-32", "key_report",
            {"ipv4.dIP": 1, "count": 2, "payload": b"", "dns.rr.name": ""}, 4,
        )
        # header(4) + 4 + 8 + (2+0) + (2+0)
        assert len(codec.encode(tup)) == 4 + 4 + 8 + 2 + 2


class TestRandomizedRoundTrip:
    """Property-style: any configurable schema must round-trip losslessly."""

    N_SCHEMAS = 40
    TUPLES_PER_SCHEMA = 5

    @staticmethod
    def random_schema(rng):
        """(field -> bit width or kind) with a mix of int, payload and DNS fields."""
        schema = {}
        for i in range(rng.randint(1, 6)):
            schema[f"f{i}"] = rng.choice([1, 4, 7, 8, 16, 31, 32, 48, 64])
        if rng.random() < 0.5:
            schema["payload"] = "bytes"
        if rng.random() < 0.5:
            schema["dns.rr.name"] = "str"
        return schema

    @staticmethod
    def random_value(rng, name, bits):
        if name == "payload":
            return bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
        if name == "dns.rr.name":
            labels = [
                "".join(rng.choice("abcxyz0123-") for _ in range(rng.randint(1, 12)))
                for _ in range(rng.randint(1, 4))
            ]
            return ".".join(labels)
        # ints: bias toward the width boundaries where truncation bugs live
        top = (1 << bits) - 1
        return rng.choice([0, 1, top, top - 1 if top else 0, rng.randint(0, top)])

    def test_randomized_schemas_roundtrip(self):
        import random

        rng = random.Random(20260805)  # seeded: failures reproduce exactly
        codec = WireCodec()
        for which in range(self.N_SCHEMAS):
            key = f"inst{which}"
            schema = self.random_schema(rng)
            codec.configure(key, schema)
            for _ in range(self.TUPLES_PER_SCHEMA):
                tup = MirroredTuple(
                    instance=key,
                    kind=rng.choice(["stream", "key_report", "overflow"]),
                    fields={
                        name: self.random_value(rng, name, bits)
                        for name, bits in schema.items()
                    },
                    op_index=rng.randint(0, 255),
                )
                decoded = codec.decode(codec.encode(tup))
                assert decoded == tup, f"schema {schema} broke round-trip"

    def test_max_width_int_boundary(self):
        codec = WireCodec()
        codec.configure("wide", {"v": 64})
        tup = MirroredTuple("wide", "stream", {"v": (1 << 64) - 1}, 0)
        assert codec.decode(codec.encode(tup)) == tup


class TestBatchScalarParity:
    """encode_batch must be bit-for-bit the concatenated scalar records,
    and decode_batch ∘ encode_batch the identity, for every schema the
    codec can express — int-only, float, blob-bearing and mixed."""

    N_SCHEMAS = 40
    ROWS_PER_SCHEMA = 7

    @staticmethod
    def random_schema(rng):
        schema = {}
        for i in range(rng.randint(1, 6)):
            schema[f"f{i}"] = rng.choice(
                [1, 4, 7, 8, 16, 31, 32, 48, 64, "float"]
            )
        if rng.random() < 0.4:
            schema["payload"] = "bytes"
        if rng.random() < 0.4:
            schema["dns.rr.name"] = "str"
        if rng.random() < 0.3:
            schema["note"] = "str"  # a str field no registry names
        return schema

    @staticmethod
    def random_value(rng, name, bits):
        if name == "payload":
            return bytes(rng.randrange(256) for _ in range(rng.randint(0, 40)))
        if bits == "str":
            return "".join(
                rng.choice("abcxyz0123-.") for _ in range(rng.randint(0, 16))
            )
        if bits == "float":
            return rng.choice([0.0, -1.5, 3.141592653589793, rng.random() * 1e9])
        # Batches intern int columns as int64, so cap below 2**63 (the
        # full uint64 range is exercised by the switch-built-column tests).
        top = (1 << min(bits, 63)) - 1
        return rng.choice([0, 1, top, rng.randint(0, top)])

    def _random_batch(self, rng, key, schema):
        tuples = [
            MirroredTuple(
                instance=key,
                kind="stream",
                fields={
                    name: self.random_value(rng, name, bits)
                    for name, bits in schema.items()
                },
                op_index=0,
            )
            for _ in range(rng.randint(1, self.ROWS_PER_SCHEMA))
        ]
        kind = rng.choice(["stream", "key_report", "overflow"])
        op_index = rng.randint(0, 255)
        batch = MirroredBatch.from_tuples(
            key, kind, op_index, tuples, order=list(schema)
        )
        return batch, [
            MirroredTuple(key, kind, t.fields, op_index) for t in tuples
        ]

    def test_encode_batch_is_concatenated_scalar_records(self):
        import random

        rng = random.Random(20260806)
        codec = WireCodec()
        for which in range(self.N_SCHEMAS):
            key = f"inst{which}"
            schema = self.random_schema(rng)
            codec.configure(key, schema)
            batch, tuples = self._random_batch(rng, key, schema)
            expected = b"".join(codec.encode(t) for t in tuples)
            assert codec.encode_batch(batch) == expected, (
                f"schema {schema} broke batch/scalar encode parity"
            )

    def test_decode_batch_roundtrip_identity(self):
        import random

        rng = random.Random(20260807)
        codec = WireCodec()
        for which in range(self.N_SCHEMAS):
            key = f"inst{which}"
            schema = self.random_schema(rng)
            codec.configure(key, schema)
            batch, tuples = self._random_batch(rng, key, schema)
            decoded = codec.decode_batch(codec.encode_batch(batch))
            assert decoded.data_equal(batch), (
                f"schema {schema} broke batch round-trip"
            )
            # And the decoded batch materializes to the scalar decodes.
            scalar = [codec.decode(codec.encode(t)) for t in tuples]
            assert decoded.materialize() == scalar

    def test_empty_batch_roundtrip(self):
        codec = make_codec()
        empty = codec.decode_batch(b"", "q1.s0@0-32")
        assert empty.n_rows == 0
        assert set(empty.field_names()) == {
            "ipv4.dIP", "count", "payload", "dns.rr.name",
        }
        assert codec.encode_batch(empty) == b""

    def test_empty_batch_needs_schema_key(self):
        codec = make_codec()
        with pytest.raises(PlanningError):
            codec.decode_batch(b"")

    def test_mixed_headers_rejected(self):
        codec = WireCodec()
        codec.configure("a", {"v": 32})
        codec.configure("b", {"v": 32})
        record_a = codec.encode(MirroredTuple("a", "stream", {"v": 1}, 0))
        record_b = codec.encode(MirroredTuple("b", "stream", {"v": 2}, 0))
        with pytest.raises(PlanningError, match="mixed headers"):
            codec.decode_batch(record_a + record_b)

    def test_trailing_bytes_rejected(self):
        codec = WireCodec()
        codec.configure("t", {"v": 32})
        record = codec.encode(MirroredTuple("t", "stream", {"v": 7}, 0))
        with pytest.raises(PlanningError, match="trailing"):
            codec.decode_batch(record + b"\x01")

    def test_overflow_error_parity(self):
        """Out-of-range ints raise the same errors int.to_bytes raises."""
        codec = WireCodec()
        codec.configure("o", {"v": 8})
        big = MirroredBatch.from_tuples(
            "o", "stream", 0,
            [MirroredTuple("o", "stream", {"v": 300}, 0)],
        )
        with pytest.raises(OverflowError) as batch_exc:
            codec.encode_batch(big)
        with pytest.raises(OverflowError) as scalar_exc:
            codec.encode(MirroredTuple("o", "stream", {"v": 300}, 0))
        assert str(batch_exc.value) == str(scalar_exc.value)

        negative = MirroredBatch.from_tuples(
            "o", "stream", 0,
            [MirroredTuple("o", "stream", {"v": -1}, 0)],
        )
        with pytest.raises(OverflowError) as batch_neg:
            codec.encode_batch(negative)
        with pytest.raises(OverflowError) as scalar_neg:
            codec.encode(MirroredTuple("o", "stream", {"v": -1}, 0))
        assert str(batch_neg.value) == str(scalar_neg.value)

    def test_instance_key_override_matches_tagged_tuple(self):
        """The batch channel encodes under a schema key that differs from
        the batch's instance name, like the scalar path's re-tagging."""
        codec = WireCodec()
        codec.configure("inst#stream#1", {"v": 16})
        batch = MirroredBatch.from_tuples(
            "inst", "stream", 1,
            [MirroredTuple("inst", "stream", {"v": 9}, 1)],
        )
        encoded = codec.encode_batch(batch, "inst#stream#1")
        tagged = MirroredTuple("inst#stream#1", "stream", {"v": 9}, 1)
        assert encoded == codec.encode(tagged)
        decoded = codec.decode_batch(encoded, "inst#stream#1")
        assert decoded.materialize()[0].fields == {"v": 9}

    def test_float_fields_roundtrip_exactly(self):
        codec = WireCodec()
        codec.configure("f", {"ts": "float", "v": 32})
        values = [0.0, -0.0, 1.5, 0.11449673109625902, 2.0**53 + 1.0]
        batch = MirroredBatch.from_tuples(
            "f", "stream", 0,
            [
                MirroredTuple("f", "stream", {"ts": ts, "v": i}, 0)
                for i, ts in enumerate(values)
            ],
        )
        decoded = codec.decode_batch(codec.encode_batch(batch))
        assert [t.fields["ts"] for t in decoded.materialize()] == values


class TestRuntimeWireCheck:
    def test_end_to_end_with_wire_check(self, synflood_trace, newly_opened_query):
        """Every mirrored tuple must survive the binary format unchanged."""
        from repro.planner import QueryPlanner
        from repro.runtime import SonataRuntime

        planner = QueryPlanner(
            [newly_opened_query], synflood_trace, window=3.0, time_limit=15
        )
        plan = planner.plan("max_dp")
        checked = SonataRuntime(plan, wire_check=True).run(synflood_trace)
        plain = SonataRuntime(plan).run(synflood_trace)
        assert checked.total_tuples == plain.total_tuples
        for a, b in zip(checked.windows, plain.windows):
            assert a.detections == b.detections

    def test_wire_counters_match_perfbench_bytes_per_tuple(
        self, synflood_trace, newly_opened_query, monkeypatch
    ):
        """The counters' ratio is perfbench's ``wire.bytes_per_tuple``:
        bytes ``encode_batch`` returned over the rows it was given. Each
        batch round trip is one ``wire_check`` span."""
        from repro.obs import NULL_OBS, Observability
        from repro.planner import QueryPlanner
        from repro.runtime import SonataRuntime

        plan = QueryPlanner(
            [newly_opened_query], synflood_trace, window=3.0, time_limit=15
        ).plan("sonata")
        seen = {"bytes": 0, "tuples": 0, "calls": 0}
        encode = WireCodec.encode_batch

        def counting(self, batch, instance_key=None):
            data = encode(self, batch, instance_key)
            seen["bytes"] += len(data)
            seen["tuples"] += batch.state.n_rows
            seen["calls"] += 1
            return data

        monkeypatch.setattr(WireCodec, "encode_batch", counting)
        obs = Observability()
        SonataRuntime(plan, wire_check=True, obs=obs).run(synflood_trace)
        snapshot = obs.snapshot()
        tuples = snapshot.total("sonata_wire_tuples_total")
        assert tuples == seen["tuples"] > 0
        assert snapshot.total("sonata_wire_bytes_total") / tuples == pytest.approx(
            seen["bytes"] / seen["tuples"]
        )
        assert len(obs.tracer.spans_named("wire_check")) == seen["calls"]
        # Disabled, the counters are the null object's.
        assert SonataRuntime(plan, wire_check=True, obs=NULL_OBS)._m_wire_bytes is (
            NULL_OBS.counter("sonata_wire_bytes_total")
        )


@pytest.fixture(scope="module")
def wire_runtime(request):
    """A wire-checking runtime; its batch check runs on any batch."""
    from repro.planner import QueryPlanner
    from repro.queries.library import build_queries
    from repro.runtime import SonataRuntime

    trace = request.getfixturevalue("synflood_trace")
    queries = build_queries(["newly_opened_tcp_conns"], window=3.0)
    plan = QueryPlanner(queries, trace, window=3.0).plan("max_dp")
    return SonataRuntime(plan, wire_check=True)


def _mixed_batch() -> MirroredBatch:
    """Int, float and vocab columns, every row distinct."""
    rows = [
        {"ipv4.dIP": 0x0A000001 + i, "ts": 0.25 * i, "payload": bytes([65 + i])}
        for i in range(4)
    ]
    return MirroredBatch.from_tuples(
        "inst", "key_report", 2,
        [MirroredTuple("inst", "key_report", r, 2) for r in rows],
    )


def _mutate(state: ColumnarState, how: str) -> ColumnarState:
    columns = {k: v.copy() for k, v in state.columns.items()}
    vocabs = dict(state.vocabs)
    if how == "int_cell":
        columns["ipv4.dIP"][1] ^= 1
    elif how == "float_cell":
        columns["ts"][2] += 0.5
    elif how == "vocab_cell":
        columns["payload"][3] = columns["payload"][0]
    elif how == "swap_rows":
        columns = {k: v[[1, 0, 2, 3]] for k, v in columns.items()}
    elif how == "drop_row":
        columns = {k: v[:-1] for k, v in columns.items()}
    elif how == "rename_field":
        columns = {("ipv4.sIP" if k == "ipv4.dIP" else k): v for k, v in columns.items()}
    return ColumnarState(columns=columns, vocabs=vocabs)


class TestWireCheckMutations:
    """A decode that changes anything makes the batch check raise."""

    def test_clean_roundtrip_passes(self, wire_runtime):
        batch = _mixed_batch()
        assert wire_runtime._wire_roundtrip_batch(batch).data_equal(batch)

    @pytest.mark.parametrize(
        "how",
        ["int_cell", "float_cell", "vocab_cell", "swap_rows", "drop_row", "rename_field"],
    )
    def test_mutation_raises(self, wire_runtime, monkeypatch, how):
        decode = WireCodec.decode_batch

        def corrupted(self, data, instance_key=None):
            batch = decode(self, data, instance_key)
            batch.state = _mutate(batch.state, how)
            return batch

        monkeypatch.setattr(WireCodec, "decode_batch", corrupted)
        with pytest.raises(PlanningError, match=r"changed batch inst#key_report#2: (row|\d+ rows)"):
            wire_runtime._wire_roundtrip_batch(_mixed_batch())

    def test_string_kind_comes_from_the_vocabulary(self, wire_runtime):
        """Columns named like the other string field keep their own kind,
        absent cells included, through the batch and the tuple check."""
        state = ColumnarState(
            columns={"payload": np.array([0, -1]), "dns.rr.name": np.array([-1, 0])},
            vocabs={
                "payload": Vocab(["a.com"], "str"),
                "dns.rr.name": Vocab([b"zz"], "bytes"),
            },
        )
        batch = MirroredBatch("swapped", "stream", 1, state)
        tuples = batch.materialize()
        assert [t.fields for t in tuples] == [
            {"payload": "a.com", "dns.rr.name": b""},
            {"payload": "", "dns.rr.name": b"zz"},
        ]
        assert wire_runtime._wire_roundtrip_batch(batch).materialize() == tuples
        assert [wire_runtime._wire_roundtrip(t) for t in tuples] == tuples

    def test_message_names_row_and_field(self, wire_runtime, monkeypatch):
        decode = WireCodec.decode_batch

        def corrupted(self, data, instance_key=None):
            batch = decode(self, data, instance_key)
            batch.state = _mutate(batch.state, "float_cell")
            return batch

        monkeypatch.setattr(WireCodec, "decode_batch", corrupted)
        with pytest.raises(PlanningError, match=r"row 2, field 'ts': 0.5 -> 1.0"):
            wire_runtime._wire_roundtrip_batch(_mixed_batch())


def rows_data_equal(a: MirroredBatch, b: MirroredBatch) -> bool:
    """The row-materializing definition of ``data_equal``: the oracle the
    column-by-column comparison must agree with on every input."""
    if (a.instance, a.kind, a.op_index) != (b.instance, b.kind, b.op_index):
        return False
    if a.field_names() != b.field_names():
        return False
    return materialize_rows(a.state, a.field_names()) == materialize_rows(
        b.state, b.field_names()
    )


def _batch(columns: dict, vocabs: "dict | None" = None) -> MirroredBatch:
    return MirroredBatch(
        "d", "stream", 0, ColumnarState(columns=columns, vocabs=vocabs or {})
    )


class TestDataEqualDifferential:
    """``data_equal`` decides on columns exactly what comparing the
    materialized rows decides."""

    @staticmethod
    def _variants(batch: MirroredBatch, rng) -> list[MirroredBatch]:
        """Batches equal or near-equal to ``batch``: re-encoded vocabs, -1
        ids, int/float/uint64 retypes and single-cell changes."""
        state = batch.state
        n = state.n_rows
        out = []
        for _ in range(6):
            columns = dict(state.columns)
            vocabs = dict(state.vocabs)
            name = rng.choice(list(columns))
            col = columns[name]
            move = rng.choice(["vocab", "minus_one", "retype", "cell", "same"])
            if name in vocabs and move == "vocab":
                # Same values under other ids, plus unused and duplicate entries.
                vocab = vocabs[name]
                perm = list(range(len(vocab)))
                rng.shuffle(perm)
                new_vocab = Vocab(
                    ["unused"] + [vocab[i] for i in perm] + vocab[:1], vocab.kind
                )
                position = {old: new + 1 for new, old in enumerate(perm)}
                columns[name] = np.array(
                    [position.get(int(i), -1) for i in col], dtype=np.int64
                )
                vocabs[name] = new_vocab
            elif name in vocabs and move == "minus_one":
                ids = col.copy()
                ids[rng.randrange(n)] = -1
                columns[name] = ids
            elif name not in vocabs and move == "retype":
                if col.dtype.kind == "f":
                    columns[name] = col.astype(np.int64)
                elif col.dtype.kind in "iu":
                    columns[name] = rng.choice(
                        [col.astype(np.float64), col.astype(np.uint64)]
                    )
            elif move == "cell":
                changed = col.copy()
                changed[rng.randrange(n)] += 1
                columns[name] = changed
            out.append(MirroredBatch(batch.instance, batch.kind, batch.op_index,
                                     ColumnarState(columns=columns, vocabs=vocabs)))
        return out

    def test_random_schemas_agree_with_rows(self):
        import random

        rng = random.Random(20261018)
        parity = TestBatchScalarParity()
        codec = WireCodec()
        verdicts = set()
        for which in range(TestBatchScalarParity.N_SCHEMAS):
            key = f"inst{which}"
            schema = parity.random_schema(rng)
            codec.configure(key, schema)
            batch, _ = parity._random_batch(rng, key, schema)
            others = [batch, codec.decode_batch(codec.encode_batch(batch))]
            others += self._variants(batch, rng)
            for other in others:
                for a, b in ((batch, other), (other, batch)):
                    expected = rows_data_equal(a, b)
                    assert a.data_equal(b) == expected, (schema, b.state)
                    verdicts.add(expected)
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "a, b",
        [
            # uint64 beyond int64, against values float64 rounds onto it.
            ([2**63 + 1], np.array([2.0**63])),
            ([2**63 + 1], np.array([2**63 - 1], dtype=np.int64)),
            ([2**64 - 1], np.array([-1], dtype=np.int64)),
            ([2**64 - 1], np.array([2**64 - 1], dtype=np.uint64)),
            ([2**63], np.array([2**63], dtype=np.uint64)),
            # int against float: equal only at the same integral value.
            ([1, 2], np.array([1.0, 2.0])),
            ([1, 2], np.array([1.0, 2.5])),
            ([2**53 + 1], np.array([2.0**53])),
            ([2**53], np.array([2.0**53])),
            ([0], np.array([-0.0])),
            ([1], np.array([np.nan])),
            ([1], np.array([np.inf])),
            ([1, 0], np.array([True, False])),
        ],
    )
    def test_numeric_edges(self, a, b):
        left = _batch({"v": np.array(a, dtype=np.uint64)})
        right = _batch({"v": b})
        for x, y in ((left, right), (right, left)):
            assert x.data_equal(y) == rows_data_equal(x, y)

    def test_nan_is_unequal_to_itself(self):
        batch = _batch({"v": np.array([np.nan])})
        assert batch.data_equal(batch) is rows_data_equal(batch, batch) is False

    @pytest.mark.parametrize("name", ["payload", "dns.rr.name"])
    @pytest.mark.parametrize(
        "ids, vocab",
        [
            ([-1, 0], ["", "x"]),
            ([1, 1], ["", "x"]),
            ([-1, 1], ["x", b""]),
            ([5, 0], ["x"]),  # out of range reads as empty too
            ([0, 1], ["x", "x"]),  # duplicate entries
        ],
    )
    def test_vocab_minus_one_reads_empty(self, name, ids, vocab):
        kind = FIELDS.get(name).kind
        reference = _batch({name: np.array([-1, 0])}, {name: Vocab(["x"], kind)})
        other = _batch({name: np.array(ids)}, {name: Vocab(vocab, kind)})
        for x, y in ((reference, other), (other, reference)):
            assert x.data_equal(y) == rows_data_equal(x, y)

    def test_vocab_against_plain_column(self):
        vocab = _batch({"v": np.array([0, 1])}, {"v": Vocab(["1", "2"])})
        plain = _batch({"v": np.array([1, 2])})
        assert vocab.data_equal(plain) == rows_data_equal(vocab, plain) is False

    def test_field_order_and_header_matter(self):
        a = _batch({"x": np.array([1]), "y": np.array([2])})
        b = _batch({"y": np.array([2]), "x": np.array([1])})
        assert a.data_equal(b) == rows_data_equal(a, b) is False
        c = MirroredBatch("d", "overflow", 0, a.state)
        assert a.data_equal(c) == rows_data_equal(a, c) is False


class TestBlobEncodeParity:
    def test_vocabulary_much_larger_than_ids_used(self):
        """Only the ids that occur are packed; the bytes stay the
        concatenated scalar records."""
        codec = WireCodec()
        codec.configure("big", {"ipv4.dIP": 32, "payload": "bytes", "dns.rr.name": "str"})
        vocab_size, used = 1000, 10
        rng = np.random.default_rng(5)
        payloads = [bytes(rng.integers(0, 256, int(rng.integers(0, 30)))) for _ in range(vocab_size)]
        names = [f"host{i}.example" for i in range(vocab_size)]
        rows = 40
        state = ColumnarState(
            columns={
                "ipv4.dIP": rng.integers(0, 2**32, rows),
                "payload": rng.choice(used, rows) * 97,
                "dns.rr.name": np.where(np.arange(rows) % 7 == 0, -1, rng.choice(used, rows) * 89),
            },
            vocabs={"payload": Vocab(payloads, "bytes"), "dns.rr.name": Vocab(names)},
        )
        batch = MirroredBatch("big", "stream", 0, state)
        expected = b"".join(codec.encode(t) for t in batch.materialize())
        assert codec.encode_batch(batch) == expected
        decoded = codec.decode_batch(expected)
        assert decoded.data_equal(batch)
        assert len(decoded.state.vocabs["payload"]) <= used

    def test_truncated_blob_record_rejected(self):
        codec = make_codec()
        tup = MirroredTuple(
            "q1.s0@0-32", "stream",
            {"ipv4.dIP": 1, "count": 2, "payload": b"abc", "dns.rr.name": "x"}, 0,
        )
        record = codec.encode(tup)
        for cut in (1, 3, len(record) - 4):
            with pytest.raises(PlanningError, match="truncated"):
                codec.decode_batch(record + record[:cut])


_OPTIMIZED_CHECK = textwrap.dedent(
    """
    import sys

    from repro.core.errors import PlanningError
    from repro.packets import Trace, attacks
    from repro.packets.generator import BackboneConfig, generate_backbone
    from repro.planner import QueryPlanner
    from repro.queries.library import build_queries
    from repro.runtime import SonataRuntime
    from repro.runtime.wire import WireCodec

    if sys.flags.optimize < 1:
        raise SystemExit("not optimized")
    trace = Trace.merge([
        generate_backbone(BackboneConfig(duration=6.0, pps=500, seed=42)),
        attacks.syn_flood(0x0A000001, start=0.0, duration=6.0, pps=120.0, seed=1),
    ])
    queries = build_queries(["newly_opened_tcp_conns"], window=3.0)
    plan = QueryPlanner(queries, trace, window=3.0).plan("max_dp")
    decode = WireCodec.decode_batch

    def corrupted(self, data, instance_key=None):
        batch = decode(self, data, instance_key)
        name = next(iter(batch.state.columns))
        batch.state.columns[name] = batch.state.columns[name] + 1
        return batch

    WireCodec.decode_batch = corrupted
    try:
        SonataRuntime(plan, wire_check=True).run(trace)
    except PlanningError as exc:
        print("raised:", exc)
    else:
        raise SystemExit("a corrupted round trip passed the wire check")
    """
)


def test_wire_check_survives_python_O():
    """``python -O`` strips asserts; the wire check still fails a
    corrupted round trip."""
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_CHECK],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr + result.stdout
    assert "raised: wire roundtrip changed batch" in result.stdout
