"""Repeated calls keep no memory: a long-lived process may repeat a command.

`tuple()` over a generator fills a spare-slot tuple and shrinks it to its
length.  A freed tuple of under 20 slots joins CPython's free list for its size
(up to 2,000 each), and the shrunk one got there without taking from that list,
so each call keeps one more tuple until the list is full.  A list comprehension
sizes the tuple once.  Building an argparse parser makes new attribute-name
strings, which CPython's type attribute cache keeps, so a parser is built once.
"""

import contextlib
import gc
import runpy
import sys
import types
from pathlib import Path

import pytest

from sybilcost import arguments, calibration, costs
from sybilcost.commands import sweep


SWEEP_ARGS = arguments.build_parser().parse_args(
    ["sweep", "--s", "1,2", "--T", "1,2,3", "--rmin", "0.5,1"]
)


class _Discard:
    """A stdout that keeps nothing; opening a file per call is itself noisy."""

    def write(self, text):
        return len(text)


def _sweep():
    with contextlib.redirect_stdout(_Discard()):
        sweep.run(SWEEP_ARGS)


def _list_parsers():
    arguments._int_list("1,2,3")
    arguments._float_list("0.5,1,2")
    arguments._coord_list("zero,linear,zero")


def _make_datasets_arguments():
    # A private copy of the script whose commands do nothing: only its own
    # argument parsing runs.
    script = Path(__file__).resolve().parent.parent / "scripts" / "make_datasets.py"
    main = runpy.run_path(str(script))["main"]
    main.__globals__["cli"] = types.SimpleNamespace(dispatch=lambda argv: 0)
    return lambda: main(["--out", "datasets"])


# Each builder with its call count; the bitcoin panel prices 500 reports a call.
BUILDERS = {
    "crossover_table": (costs.crossover_table, 200),
    "calibrate-eth": (lambda: calibration.run_calibration(calibration.eth_scenario()), 200),
    "calibrate-btc": (lambda: calibration.run_calibration(calibration.btc_tiers()), 40),
    "sweep": (_sweep, 200),
    "list-parsers": (_list_parsers, 200),
    "make_datasets-arguments": (_make_datasets_arguments(), 200),
}


@pytest.mark.parametrize("builder, calls", BUILDERS.values(), ids=list(BUILDERS))
def test_repeated_calls_do_not_grow_the_heap(builder, calls):
    # A full collection empties the free lists, so none may run in between; as
    # many warm-up calls refill the small capped ones (floats, lists, dicts).  A
    # young collection frees the calls' own cycles (argparse makes some) and
    # leaves the free lists as they are.
    gc.collect()
    gc.disable()
    try:
        for _ in range(calls):
            builder()
        gc.collect(1)
        before = sys.getallocatedblocks()
        for _ in range(calls):
            builder()
        gc.collect(1)
        grown = sys.getallocatedblocks() - before
    finally:
        gc.enable()
    assert grown < calls / 5, f"{grown} blocks kept over {calls} calls"
