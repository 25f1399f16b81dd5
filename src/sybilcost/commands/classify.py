"""`sybilcost classify`: the resource class of one spec, with its reasons."""

import argparse

from .. import cli, resources


def run(args: argparse.Namespace) -> int:
    spec = resources.resolve(args.spec)
    outcome = resources.classify(spec)
    cli._emit(
        args, None, name=spec.name, resource_class=outcome.resource_class.value,
        reasons=list(outcome.reasons),
    )
    return cli.EXIT_OK
