"""`sybilcost classify`: the resource class of one spec, with its reasons."""

import argparse

from .. import cli, resources


def run(args: argparse.Namespace) -> int:
    spec = resources.resolve(args.spec)
    outcome = resources.classify(spec)
    payload = {
        "meta": cli._meta(args),
        "name": spec.name,
        "resource_class": outcome.resource_class.value,
        "reasons": list(outcome.reasons),
    }
    cli._emit(args, lambda handle: cli._write_json(handle, payload))
    return cli.EXIT_OK
