"""Private temperature ledger and encrypted record-file exchange.

Two cooperating subsystems:

* a single-authority account-balance ledger that carries temperature
  readings as signed transactions from sensor wallets to a building
  management account (``ledger``, ``telemetry``);
* a content-addressed, deduplicating object store holding hybrid-encrypted
  record files, with a peer fetch protocol for sharing them between
  management systems by root hash (``dagstore``, ``envelope``,
  ``exchange``).
"""

from .keys import SigningKey
from .ledger import Chain
from .telemetry import RotationPolicy, encode_reading, ingest_csv, pump

__all__ = ["Chain", "RotationPolicy", "SigningKey", "encode_reading", "ingest_csv", "pump"]
