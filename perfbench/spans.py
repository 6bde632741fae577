"""In-memory span tracer that times thermoledger from the outside.

The benchmark wraps the public functions of each thermoledger module at
the attribute its caller looks up (``ledger.verify_signature``, not only
``keys.verify_signature``), so no tracing code lives in ``src/``. Each
wrapped call records a span ``(name, start, end, parent, op id)`` in a
list kept in memory and written out when the run ends; per-name call
counts, inclusive time, self time (duration minus the time covered by
child spans) and measured quantities are summed as spans close.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id: int | None = None
        self.spans: list[tuple[str, float, float, int, int | None]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.quantity: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.op_id))
        frame = [index, name, 0.0, time.perf_counter()]  # index, name, child time, start
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        index, name, child_s, start = frame
        stack = self._stack()
        stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.spans[index] = (name, start, end, self.spans[index][3], self.op_id)
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - child_s

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block, if tracing is enabled."""
        if not self.enabled:
            yield
            return
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.quantity[key] += amount

    def wrap(self, owner, attr: str, name: str, measure=None, before=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper named ``name``.

        ``measure(args, result, pre)`` returns quantities to add under
        ``name.<key>``; ``before(args)`` runs before the clock starts and
        its value is passed to ``measure`` as ``pre``.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            pre = before(args) if before is not None else None
            frame = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if measure is not None:
                for key, amount in measure(args, result, pre).items():
                    tracer.add(f"{name}.{key}", amount)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "quantity": dict(self.quantity),
        }

    def write_spans(self, path: str) -> None:
        """One JSON array per line: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as fp:
            for span in self.spans:
                fp.write(json.dumps(span) + "\n")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install_client(tracer: Tracer) -> None:
    """Wrap every public layer function the benchmark's ops reach."""
    from thermoledger import canonical, dagstore, envelope, exchange, keys, ledger, telemetry

    for module in (canonical, ledger, dagstore, exchange, envelope):
        tracer.wrap(module, "canonical_json", "canonical.canonical_json", measure=lambda a, r, p: {"bytes": len(r)})
    for module in (canonical, keys, ledger, dagstore, exchange, envelope):
        tracer.wrap(module, "sha256", "canonical.sha256", measure=lambda a, r, p: {"bytes": len(a[0])})

    tracer.wrap(keys.SigningKey, "sign", "keys.sign")
    for module in (keys, ledger):
        tracer.wrap(module, "verify_signature", "keys.verify")

    for attr in ("seal_block", "verify_tx", "apply_tx", "merkle_root"):
        tracer.wrap(ledger, attr, f"ledger.{attr}")
    tracer.wrap(
        ledger, "append_block", "ledger.append_block",
        before=lambda a: _file_size(a[0]),
        measure=lambda a, r, p: {"bytes": _file_size(a[0]) - p},
    )
    tracer.wrap(ledger, "load_chain", "ledger.load_chain", measure=lambda a, r, p: {"bytes": _file_size(a[0])})
    tracer.wrap(
        ledger, "verify_chain", "ledger.verify_chain",
        measure=lambda a, r, p: {"tx": sum(len(b.transactions) for b in a[0])},
    )
    tracer.wrap(ledger, "query_transactions", "ledger.query_transactions", measure=lambda a, r, p: {"rows": len(r)})
    for attr in ("open", "seal", "query"):
        tracer.wrap(ledger.Chain, attr, f"ledger.Chain.{attr}")

    tracer.wrap(telemetry, "ingest_csv", "telemetry.ingest_csv")
    tracer.wrap(telemetry, "pump", "telemetry.pump", measure=lambda a, r, p: {"tx": len(r)})
    tracer.wrap(telemetry, "decode_value", "telemetry.decode_value")

    tracer.wrap(envelope, "encrypt_for", "envelope.encrypt_for", measure=lambda a, r, p: {"in": len(a[1]), "out": len(r)})
    tracer.wrap(envelope, "decrypt", "envelope.decrypt", measure=lambda a, r, p: {"bytes": len(r)})

    tracer.wrap(dagstore, "add_file", "dagstore.add_file")
    tracer.wrap(dagstore, "cat_file", "dagstore.cat_file")
    tracer.wrap(dagstore, "encode_node", "dagstore.encode_node")
    for module in (dagstore, exchange):
        tracer.wrap(module, "decode_node", "dagstore.decode_node")
    tracer.wrap(
        dagstore.ObjectStore, "put", "dagstore.put",
        # the store lays a node out at objects/<2 hex>/<62 hex>
        measure=lambda a, r, p: {
            "new": int(r[1]),
            "bytes": _file_size(a[0].root / r[0][:2] / r[0][2:]) if r[1] else 0,
        },
    )
    tracer.wrap(dagstore.ObjectStore, "get_bytes", "dagstore.get_bytes")

    tracer.wrap(exchange, "fetch_dag", "exchange.fetch_dag")
    tracer.wrap(exchange._PeerConnection, "request_node", "exchange.request_node")
    tracer.wrap(exchange, "read_frame", "exchange.read_frame", measure=lambda a, r, p: {"bytes": 4 + len(r) if r is not None else 0})
    tracer.wrap(exchange, "write_frame", "exchange.write_frame", measure=lambda a, r, p: {"bytes": 4 + len(a[1])})
    tracer.wrap(exchange, "decode_message", "exchange.decode_message")


def install_server(tracer: Tracer) -> None:
    """Wrap the two calls a serving peer makes per requested node."""
    from thermoledger import dagstore, exchange

    tracer.wrap(dagstore.ObjectStore, "get_bytes", "exchange.server.get_bytes")
    tracer.wrap(exchange, "encode_node", "exchange.server.encode_node")
