"""The settable surface, listed in full: CLI options and the defaulted
parameters of the public API.

Every option or defaulted parameter is a setting that tests and benchmarks
must cover, so adding one has to change these lists in the same diff,
where review sees it.
"""

import importlib
import inspect
import pkgutil

import click

import thermoledger
from thermoledger.cli import main

CLI_OPTIONS = [
    ("", "--data-dir"),
    ("", "--offset-c"),
    ("", "--sealer-key"),
    ("explorer", "--format"),
    ("explorer", "--from"),
    ("explorer", "--raw"),
    ("explorer", "--to"),
    ("file fetch", "--from"),
    ("file fetch", "--identity"),
    ("file fetch", "--out"),
    ("file fetch", "--root"),
    ("file publish", "--in"),
    ("file publish", "--recipient"),
    ("ingest", "--csv"),
    ("ingest", "--no-seal"),
    ("ingest", "--rotate-every"),
    ("ingest", "--sender-key"),
    ("ingest", "--to"),
    ("init", "--genesis"),
    ("keygen", "--kind"),
    ("keygen", "--out"),
    ("serve", "--host"),
    ("serve", "--port"),
]


def _options(command: click.Command, path: str) -> list[tuple[str, str]]:
    found = [
        (path, name)
        for param in command.params
        if isinstance(param, click.Option)
        for name in param.opts + param.secondary_opts
    ]
    for sub in getattr(command, "commands", {}).values():
        found += _options(sub, f"{path} {sub.name}".strip())
    return found


def test_cli_options_are_exactly_the_listed_ones():
    assert sorted(_options(main, "")) == CLI_OPTIONS


# (module, public function, method or class whose signature has it, parameter)
DEFAULTED_PARAMETERS = [
    ("canonical", "parse_hex", "length"),
    ("canonical", "parse_uint", "max_value"),
    ("dagstore", "CorruptObject", "reason"),
    ("dagstore", "DagNode", "data"),
    ("dagstore", "DagNode", "links"),
    ("ledger", "Account", "balance"),
    ("ledger", "Account", "nonce"),
    ("ledger", "Block", "claimed_hash"),
    ("ledger", "Chain", "path"),
    ("ledger", "Chain.create", "path"),
    ("ledger", "Chain.seal", "timestamp"),
    ("ledger", "Transaction", "gas_limit"),
    ("ledger", "Transaction", "gas_price"),
    ("ledger", "Transaction", "signature"),
    ("ledger", "build_and_sign_tx", "gas_limit"),
    ("ledger", "build_and_sign_tx", "gas_price"),
    ("ledger", "query_transactions", "recipient"),
    ("ledger", "query_transactions", "sender"),
    ("ledger", "seal_block", "timestamp"),
    ("telemetry", "decode_value", "offset_c"),
    ("telemetry", "encode_reading", "offset_c"),
    ("telemetry", "pump", "offset_c"),
]


def _defaulted(module_name: str, label: str, obj) -> list[tuple[str, str, str]]:
    try:
        params = inspect.signature(obj).parameters.values()
    except (TypeError, ValueError):  # a builtin without a signature
        return []
    return [(module_name, label, p.name) for p in params if p.default is not inspect.Parameter.empty]


def _public_defaulted() -> list[tuple[str, str, str]]:
    """Public module-level functions and classes defined in each module, and
    the public methods a class defines itself."""
    found = []
    for info in pkgutil.iter_modules(thermoledger.__path__):
        module = importlib.import_module(f"thermoledger.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                found += _defaulted(info.name, name, obj)
            elif inspect.isclass(obj):
                found += _defaulted(info.name, name, obj)
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", member)  # staticmethod, classmethod
                    if not attr.startswith("_") and inspect.isfunction(member):
                        found += _defaulted(info.name, f"{name}.{attr}", member)
    return found


def test_defaulted_parameters_are_exactly_the_listed_ones():
    assert sorted(_public_defaulted()) == DEFAULTED_PARAMETERS
