"""`sybilcost taxonomy`: the built-in presets as a table."""

import argparse

from .. import cli, resources


def run(args: argparse.Namespace) -> int:
    rows = resources.taxonomy_rows()
    cli._emit(args, rows, rows=rows)
    return cli.EXIT_OK
