"""The `sybilcost` entry point: dispatch, exit codes and the one atomic writer.

`arguments` holds what the command line accepts and the help text; `dispatch`
imports the one module under `commands` that `args.command` names, runs it,
and prints a refusal as one `error:` line: exit 3 past the plan ceiling, else 1.
Emitted bytes are deterministic.  Every file goes through `_write_with`, which
runs a writer on a scratch file and renames it, so a failed write never leaves
a partial dataset.  Tables and JSON documents stream into that scratch file row
by row; on stdout they are written once, after the last row, so a refusal part
way prints nothing there.  The command modules look these helpers up on this
module at call time, so replacing one here reaches every command.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, TextIO

# csv is imported by the CSV branch of `_write_table`, so the other commands
# never load it.
from .arguments import OUTPUT_DIR_ENV, build_parser
from .law import PlanBudgetExceeded

__all__ = [
    "EXIT_BUDGET",
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_VERIFICATION",
    "OUTPUT_DIR_ENV",
    "build_parser",
    "dispatch",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFICATION = 2
EXIT_BUDGET = 3

# ---------------------------------------------------------------------------
# Emission helpers
# ---------------------------------------------------------------------------


# `vars` writes a dataclass as its fields where it stands, so no result is copied first.
_JSON_SETTINGS = {"sort_keys": True, "indent": 2, "allow_nan": False, "default": vars}


def _write_table(
    handle: TextIO, fmt: str, rows: Iterable[dict[str, object]] | None, /, **payload: object
) -> None:
    """Write a table of row dicts as CSV, or as the JSON object of the keyword arguments.

    The one serializer: a command hands `_emit` its rows and payload, and
    `_emit` writes them here.  `rows` may be any iterable, such as a generator:
    each row is written as it comes, so the table never exists as row dicts or
    as text all at once.  The CSV header is the first row's keys, and a None
    cell is left empty.  The JSON object names the rows itself, so it can hold
    them under any key; a payload value that is `rows` itself is listed there,
    one row at a time, and a document with no rows passes None.  Every other
    value streams chunk by chunk, as `json.dump` streams it.  Both formats
    refuse a non-finite number, which may come after some rows are written.
    """
    if fmt == "json":
        # json escapes every newline inside a string, so each newline the
        # encoder writes is one to indent.
        encoder = json.JSONEncoder(**_JSON_SETTINGS)
        encode = encoder.encode
        for index, key in enumerate(sorted(payload)):
            handle.write(("," if index else "{") + "\n  " + encode(key) + ": ")
            if rows is None or payload[key] is not rows:
                for chunk in encoder.iterencode(payload[key]):
                    handle.write(chunk.replace("\n", "\n  "))
                continue
            count = 0
            for count, row in enumerate(rows, 1):
                handle.write(("," if count > 1 else "[") + "\n    " + encode(row).replace("\n", "\n    "))
            handle.write("\n  ]" if count else "[]")
        handle.write("\n}\n" if payload else "{}\n")
        return
    import csv

    writer = csv.writer(handle, lineterminator="\n")
    for index, row in enumerate(rows):
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"non-finite value {value} in column {key!r} is not CSV compliant")
        if index == 0:
            writer.writerow(row)
        writer.writerow(row.values())


def _resolve_out(path_text: str) -> Path:
    """Resolve an --out path, rooting relative paths in the output-dir env var."""
    path = Path(path_text)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        return Path(base) / path
    return path


def _write_with(path: Path, write: Callable[[TextIO], object]) -> None:
    """Run `write` on a scratch file of this call's own, then rename it over path.

    The scratch name is random and opened exclusively, so a concurrent writer's
    file is never reused or clobbered.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = f"{path}.{os.urandom(8).hex()}.tmp"  # a str: a new Path would intern the name
    handle = open(scratch, "x")
    try:
        with handle:
            write(handle)
        os.replace(scratch, path)
    except BaseException:
        Path(scratch).unlink(missing_ok=True)
        raise


def _write_text(path: Path, text: str) -> None:
    _write_with(path, lambda handle: handle.write(text))


def _emit(
    args: argparse.Namespace, rows: Iterable[dict[str, object]] | None, /, **payload: object
) -> None:
    """Write a command's rows and payload, with its `meta`, to --out or to stdout.

    The format is `args.format`: JSON for a command with no --format, and CSV
    where --format has no default and is not given (`crossover --table`).
    Stdout is written once, after the last row.
    """
    fmt = getattr(args, "format", "json") or "csv"
    payload["meta"] = {"seed": getattr(args, "seed", None)}
    out = getattr(args, "out", None)
    if out:
        target = _resolve_out(out)
        _write_with(target, lambda handle: _write_table(handle, fmt, rows, **payload))
        print(f"wrote {target}")
    else:
        buffer = io.StringIO()
        _write_table(buffer, fmt, rows, **payload)
        sys.stdout.write(buffer.getvalue())


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Parsing stores nothing on the parser (each call fills a new namespace),
    # so every dispatch in a process can reuse the one built here.
    return build_parser()


def dispatch(argv: list[str] | None = None) -> int:
    """Parse arguments and run one subcommand, mapping failures to exit codes."""
    try:
        args = _shared_parser().parse_args(argv)
        command = importlib.import_module(f".commands.{args.command.replace('-', '_')}", __package__)
        return command.run(args)
    except (ValueError, OverflowError, OSError, PlanBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, PlanBudgetExceeded) else EXIT_USAGE
    except MemoryError:
        # The frames that held the failed allocation's data are gone by now.
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
