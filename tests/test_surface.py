"""The operator-facing option surface, listed in full.

Every option is a setting that tests and benchmarks must cover, so adding
one has to change this list in the same diff, where review sees it.
"""

import click

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
