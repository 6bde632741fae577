import io
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoledger import keys, ledger
from thermoledger.telemetry import (
    BadRow,
    MissingHeader,
    NegativeValue,
    PoolExhausted,
    RotationPolicy,
    SensorReading,
    decode_value,
    encode_reading,
    format_temperature,
    ingest_csv,
    parse_temperature,
    pump,
)

from .conftest import FIXTURE_CSV, FIXTURE_VALUES, sensor_pool

one_decimal = st.integers(0, 500).map(lambda n: Decimal(n) / 10)
three_decimal = st.integers(-273150, 1000000).map(lambda n: Decimal(n) / 1000)


class TestCodec:
    def test_known_value(self):
        assert encode_reading(Decimal("22.9")) == 22_900_000_000_000_000_000

    def test_zero(self):
        assert encode_reading(Decimal("0")) == 0
        assert decode_value(0, Decimal(0)) == Decimal("0")

    def test_negative_rejected_without_offset(self):
        with pytest.raises(NegativeValue):
            encode_reading(Decimal("-5.0"))

    def test_offset_shifts_encoding(self):
        offset_c = Decimal(1000)
        value = encode_reading(Decimal("-5.0"), offset_c)
        assert value == 995_000_000_000_000_000_000
        assert decode_value(value, offset_c) == Decimal("-5.0")

    @pytest.mark.parametrize("offset_c", ["NaN", "sNaN", "Infinity", "-Infinity", "-0.001", "1000.001", "1e80", "0.0000000000000000001"])
    def test_offset_outside_the_rule_refused(self, offset_c):
        with pytest.raises(ValueError, match="offset"):
            encode_reading(Decimal("22.9"), Decimal(offset_c))
        with pytest.raises(ValueError, match="offset"):
            decode_value(22_900_000_000_000_000_000, Decimal(offset_c))

    def test_decode_known_value(self):
        assert decode_value(22_900_000_000_000_000_000, Decimal(0)) == Decimal("22.9")

    @settings(max_examples=200)
    @given(one_decimal)
    def test_round_trip_one_decimal(self, t):
        assert decode_value(encode_reading(t), Decimal(0)) == t

    @settings(max_examples=200)
    @given(three_decimal)
    def test_round_trip_three_decimals_with_offset(self, t):
        offset_c = Decimal("273.15")
        if t + offset_c < 0:
            with pytest.raises(NegativeValue):
                encode_reading(t, offset_c)
        else:
            assert decode_value(encode_reading(t, offset_c), offset_c) == t

    @settings(max_examples=100)
    @given(one_decimal, one_decimal)
    def test_strictly_monotone(self, a, b):
        if a < b:
            assert encode_reading(a) < encode_reading(b)
        elif a == b:
            assert encode_reading(a) == encode_reading(b)
        else:
            assert encode_reading(a) > encode_reading(b)


class TestFormatTemperature:
    @pytest.mark.parametrize(
        "value,expected",
        [("22.9", "22.9"), ("24.0", "24"), ("0", "0"), ("0.0", "0"), ("-0.5", "-0.5"), ("100", "100")],
    )
    def test_render(self, value, expected):
        assert format_temperature(Decimal(value)) == expected


class TestParseTemperature:
    def test_three_fraction_digits_ok(self):
        assert parse_temperature("21.125") == Decimal("21.125")

    @pytest.mark.parametrize("bad", ["abc", "21.1234", "1e3", "NaN", "Infinity", "", "2000", "-300"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_temperature(bad)


class TestIngest:
    def test_fixture_row(self):
        readings = ingest_csv(io.StringIO("sensor_id,timestamp,temperature_c\ns1,2016-06-01T10:00:00,22.9\n"))
        assert readings == [SensorReading("s1", "2016-06-01T10:00:00", Decimal("22.9"))]

    def test_bundled_fixture_values_in_order(self):
        readings = ingest_csv(FIXTURE_CSV)
        assert [r.temperature_c for r in readings] == [Decimal(v) for v in FIXTURE_VALUES]
        assert len(readings) == 24

    def test_header_only_gives_empty_list(self):
        assert ingest_csv(io.StringIO("sensor_id,timestamp,temperature_c\n")) == []

    def test_missing_header(self):
        with pytest.raises(MissingHeader):
            ingest_csv(io.StringIO("a,b,c\ns1,2016-06-01T10:00:00,22.9\n"))
        with pytest.raises(MissingHeader):
            ingest_csv(io.StringIO(""))

    def test_bad_temperature_reports_line(self):
        stream = io.StringIO(
            "sensor_id,timestamp,temperature_c\n"
            "s1,2016-06-01T10:00:00,22.9\n"
            "s1,2016-06-01T10:30:00,abc\n"
        )
        with pytest.raises(BadRow) as excinfo:
            ingest_csv(stream)
        assert excinfo.value.line == 3

    def test_bad_column_count_fails_whole_ingest(self):
        stream = io.StringIO("sensor_id,timestamp,temperature_c\ns1,2016-06-01T10:00:00\n")
        with pytest.raises(BadRow):
            ingest_csv(stream)

    def test_bad_timestamp_rejected(self):
        stream = io.StringIO("sensor_id,timestamp,temperature_c\ns1,yesterday,22.9\n")
        with pytest.raises(BadRow):
            ingest_csv(stream)


def _readings(values):
    return [SensorReading("s1", f"2016-06-01T10:{i:02d}:00", Decimal(v)) for i, v in enumerate(values)]


class TestPump:
    def test_single_sender_fixture_order(self, chain, sensor, bms):
        readings = ingest_csv(FIXTURE_CSV)
        rotation = RotationPolicy(rotate_every="never", pool=(sensor,))
        txs = pump(readings, rotation, bms.address, chain.state)
        assert len(txs) == 24
        assert {tx.sender for tx in txs} == {sensor.address}
        assert [decode_value(tx.value, Decimal(0)) for tx in txs] == [Decimal(v) for v in FIXTURE_VALUES]
        assert [tx.nonce for tx in txs] == list(range(24))

    def test_rotation_every_8_uses_3_senders(self, chain, bms):
        pool = sensor_pool(3)
        readings = _readings(FIXTURE_VALUES)
        txs = pump(readings, RotationPolicy(8, pool), bms.address, chain.state)
        senders = [tx.sender for tx in txs]
        assert len(set(senders)) == 3
        for key in pool:
            assert senders.count(key.address) == 8
        # batch boundaries fall exactly every 8 readings
        assert senders == [pool[i // 8].address for i in range(24)]

    def test_no_readings_no_txs(self, chain, bms, sensor):
        assert pump([], RotationPolicy("never", (sensor,)), bms.address, chain.state) == []

    def test_pool_exhausted(self, chain, bms):
        readings = _readings(FIXTURE_VALUES)
        with pytest.raises(PoolExhausted):
            pump(readings, RotationPolicy(8, sensor_pool(2)), bms.address, chain.state)

    def test_order_preserved_through_seal_and_query(self, chain, sensor, bms, sealer):
        readings = ingest_csv(FIXTURE_CSV)
        txs = pump(readings, RotationPolicy("never", (sensor,)), bms.address, chain.state)
        chain.seal(txs, sealer)
        rows = chain.query(None, bms.address)
        assert [decode_value(tx.value, Decimal(0)) for _, tx in rows] == [r.temperature_c for r in readings]

    def test_nonces_continue_across_batches(self, chain, sensor, bms, sealer):
        rotation = RotationPolicy("never", (sensor,))
        first = pump(_readings(["20.0", "20.1"]), rotation, bms.address, chain.state)
        chain.seal(first, sealer)
        second = pump(_readings(["20.2"]), rotation, bms.address, chain.state)
        assert [tx.nonce for tx in second] == [2]

    def test_sender_addresses_are_not_rehashed(self, chain, bms, monkeypatch):
        pool = sensor_pool(3)
        derived = []
        real = keys.derive_address
        monkeypatch.setattr(keys, "derive_address", lambda public_key: derived.append(public_key) or real(public_key))
        rotation = RotationPolicy(8, pool)
        txs = pump(_readings(FIXTURE_VALUES), rotation, bms.address, chain.state)
        assert len(txs) == 24
        assert derived == []

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 30), st.integers(1, 9))
    def test_rotation_bound_property(self, n, k):
        pool = sensor_pool(-(-max(n, 1) // k) + 1)
        state = ledger.ChainState(accounts={}, head_hash=b"\x00" * 32, head_height=0, authority=b"")
        receiver = sensor_pool(1, first_seed=99)[0].address
        txs = pump(_readings(["21.0"] * n), RotationPolicy(k, pool), receiver, state)
        counts = {}
        for tx in txs:
            counts[tx.sender] = counts.get(tx.sender, 0) + 1
        assert all(c <= k for c in counts.values())
        assert sum(counts.values()) == n


class TestRotationPolicy:
    def test_never_is_the_one_spelling(self, sensor):
        assert RotationPolicy("never", (sensor,)).rotate_every == "never"
        for other in (None, "Never", "0"):
            with pytest.raises(ValueError):
                RotationPolicy(other, (sensor,))

    def test_rejects_non_positive(self, sensor):
        with pytest.raises(ValueError):
            RotationPolicy(0, (sensor,))

    def test_rejects_a_bool(self, sensor):
        for flag in (True, False):
            with pytest.raises(ValueError):
                RotationPolicy(flag, (sensor,))

    def test_rejects_duplicate_pool(self, sensor):
        with pytest.raises(ValueError):
            RotationPolicy(2, (sensor, sensor))
