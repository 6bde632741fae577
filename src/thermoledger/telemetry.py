"""Temperature readings as ledger values.

A reading of 22.9 degC becomes the integer transfer amount
22_900_000_000_000_000_000: one degree per 10^18 base units, so values in
an explorer read back as plain temperatures. Temperatures are handled as
exact decimals end to end (parsed with at most 3 fractional digits), never
as binary floats, so the encode/decode round trip is lossless.

Transfers cannot be negative; sub-zero climates opt into an affine offset:
value = (t + offset_c) * SCALE, subtracted again on decode. Both directions
hold offset_c to require_offset's rule, so every reading encodes exactly.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from pathlib import Path
from typing import IO, Iterable, Sequence

from .errors import Error
from .keys import SigningKey
from .ledger import ChainState, Transaction, build_and_sign_tx

SCALE = 10**18
MAX_FRACTION_DIGITS = 3
TEMPERATURE_MIN = Decimal("-273.15")
TEMPERATURE_MAX = Decimal("1000.0")
CSV_HEADER = ("sensor_id", "timestamp", "temperature_c")

_TEMPERATURE_RE = re.compile(r"-?[0-9]+(?:\.[0-9]{1,%d})?" % MAX_FRACTION_DIGITS)
_TIMESTAMP_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}[T ][0-9]{2}:[0-9]{2}:[0-9]{2}(?:\.[0-9]+)?(?:Z|[+-][0-9]{2}:[0-9]{2})?")


class NegativeValue(Error):
    """Temperature plus offset is below zero and cannot be a transfer."""


class MissingHeader(Error):
    """CSV input does not start with the expected header row."""


class BadRow(Error):
    """A CSV row failed to parse; ingestion aborts, nothing is skipped."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class PoolExhausted(Error):
    """The rotation policy needs more pre-funded sender keys than provided."""


@dataclass(frozen=True)
class SensorReading:
    sensor_id: str
    timestamp: str
    temperature_c: Decimal


@dataclass(frozen=True)
class RotationPolicy:
    """Advance to the next pool sender after every rotate_every transactions.

    rotate_every "never" keeps a single sender for the whole run.
    """

    rotate_every: int | str
    pool: tuple[SigningKey, ...]

    def __post_init__(self):
        require_rotate_every(self.rotate_every)
        addresses = [key.address for key in self.pool]
        if len(set(addresses)) != len(addresses):
            raise ValueError("rotation pool contains duplicate addresses")


def require_rotate_every(k: int | str) -> int | str:
    """The rotation rule: a positive integer or "never"; ValueError otherwise."""
    if k != "never" and (not isinstance(k, int) or isinstance(k, bool) or k < 1):
        raise ValueError("rotate_every must be a positive integer or never")
    return k


def parse_temperature(text: str) -> Decimal:
    """Strict decimal parse: at most 3 fractional digits, in sensor range."""
    if not isinstance(text, str) or not _TEMPERATURE_RE.fullmatch(text):
        raise ValueError(f"not a temperature with <= {MAX_FRACTION_DIGITS} fractional digits: {text!r}")
    value = Decimal(text)
    if not (TEMPERATURE_MIN <= value <= TEMPERATURE_MAX):
        raise ValueError(f"temperature {text} out of range [{TEMPERATURE_MIN}, {TEMPERATURE_MAX}]")
    return value


def require_offset(offset_c: Decimal) -> Decimal:
    """The offset rule: a finite Decimal in [0, 1000] with at most 3 fractional digits; ValueError otherwise."""
    finite = isinstance(offset_c, Decimal) and offset_c.is_finite()
    if not (finite and 0 <= offset_c <= TEMPERATURE_MAX and offset_c == round(offset_c, MAX_FRACTION_DIGITS)):
        raise ValueError(f"offset must be a Decimal in [0, {TEMPERATURE_MAX}] with <= {MAX_FRACTION_DIGITS} fractional digits: {offset_c!r}")
    return offset_c


def encode_reading(temperature_c: Decimal, offset_c: Decimal = Decimal(0)) -> int:
    """Scale a temperature to an exact integer transfer amount."""
    shifted = temperature_c + require_offset(offset_c)
    if shifted < 0:
        raise NegativeValue(f"{temperature_c} + offset {offset_c} is negative")
    with localcontext() as ctx:
        ctx.prec = 80
        value = (shifted * SCALE).to_integral_value()
    return int(value)


def decode_value(value: int, offset_c: Decimal) -> Decimal:
    """Exact inverse of encode_reading."""
    with localcontext() as ctx:
        ctx.prec = 80
        return Decimal(value) / SCALE - require_offset(offset_c)


def format_temperature(value: Decimal) -> str:
    """Render without exponent or trailing zeros (22.9, 24, -0.5)."""
    text = format(value.normalize(), "f")
    return "0" if text in ("-0", "0") else text


def ingest_csv(source: str | Path | IO[str]) -> list[SensorReading]:
    """Parse sensor_id,timestamp,temperature_c rows, preserving order.

    The whole ingest fails on the first malformed row; partial data never
    reaches the ledger silently.
    """
    if hasattr(source, "read"):
        return _ingest_rows(csv.reader(source))
    with open(source, "r", encoding="utf-8", newline="") as fp:
        return _ingest_rows(csv.reader(fp))


def _ingest_rows(rows: Iterable[Sequence[str]]) -> list[SensorReading]:
    readings = []
    header = None
    line = 0
    for line, row in enumerate(rows, start=1):
        if header is None:
            header = tuple(row)
            if header != CSV_HEADER:
                raise MissingHeader(f"expected header {','.join(CSV_HEADER)}, got {','.join(row)!r}")
            continue
        if len(row) != 3:
            raise BadRow(line, f"expected 3 columns, got {len(row)}")
        sensor_id, timestamp, temperature = row
        if not sensor_id:
            raise BadRow(line, "empty sensor_id")
        if not _TIMESTAMP_RE.fullmatch(timestamp):
            raise BadRow(line, f"not an ISO-8601 timestamp: {timestamp!r}")
        try:
            value = parse_temperature(temperature)
        except ValueError as exc:
            raise BadRow(line, str(exc)) from exc
        readings.append(SensorReading(sensor_id, timestamp, value))
    if header is None:
        raise MissingHeader("input is empty")
    return readings


def pump(
    readings: Sequence[SensorReading],
    rotation: RotationPolicy,
    receiver: str,
    state: ChainState,
    offset_c: Decimal = Decimal(0),
) -> list[Transaction]:
    """Turn readings into signed transactions, one per reading, in order.

    The sender advances to the next pool key after every rotate_every
    transactions; nonces continue from the current chain state and are
    tracked per sender across the batch. Transactions carry
    build_and_sign_tx's zero fee; it refuses a receiver that is not an address.
    """
    k = rotation.rotate_every
    per_sender = max(len(readings), 1) if k == "never" else k  # "never": one sender for the whole batch
    senders_needed = -(-len(readings) // per_sender)
    if senders_needed > len(rotation.pool):
        raise PoolExhausted(
            f"{len(readings)} readings at {k} per address need {senders_needed} keys, pool has {len(rotation.pool)}"
        )
    next_nonce: dict[str, int] = {}
    txs = []
    for i, reading in enumerate(readings):
        key = rotation.pool[i // per_sender]
        address = key.address
        if address not in next_nonce:
            next_nonce[address] = state.account(address).nonce
        tx = build_and_sign_tx(
            key,
            receiver,
            encode_reading(reading.temperature_c, offset_c),
            next_nonce[address],
        )
        next_nonce[address] += 1
        txs.append(tx)
    return txs
