"""Span tracing of sybilcost's public functions, installed from outside the package.

`Tracer.install` replaces module attributes with timing wrappers at the
places callers look them up (a name imported with ``from .x import f`` is a
separate attribute of the importing module, so it is wrapped there too).
Spans stay in memory as parallel lists (layer, start, end, parent span, op
id) and are written out once, at the end of the traced run.

Run as a script, this module is the child process of a traced ``cli-cold``
op: ``python tracer.py SPANS_FILE ARGV...`` with ``PYTHONPATH=src`` imports
the CLI, installs the wrappers, dispatches ARGV, copies the CLI's standard
output through unchanged, dumps its spans to SPANS_FILE and exits with the
CLI's exit code.
"""

from __future__ import annotations

import functools
import json
import time

# (layer, module, attribute): every attribute a caller looks up.
WRAPPED = (
    ("oracle.min_cost", "oracle", "min_cost"),
    ("oracle.plan_feasible", "oracle", "plan_feasible"),
    ("oracle.verify_bounds", "oracle", "verify_bounds"),
    ("resources.classify", "resources", "classify"),
    ("resources.classify", "oracle", "classify"),
    ("resources.classify", "simulation", "classify"),
    ("costs.law", "costs", "cost_parallelizable"),
    ("costs.law", "costs", "cost_throughput_bounded"),
    ("costs.law", "costs", "cost_partial_transferability"),
    ("costs.law", "costs", "cost_bounded_reuse"),
    ("costs.law", "costs", "cost_hybrid"),
    ("costs.law", "costs", "governance_hybrid"),
    ("costs.law", "calibration", "cost_parallelizable"),
    ("costs.law", "calibration", "cost_throughput_bounded"),
    ("costs.crossover", "costs", "crossover"),
    ("simulation.run", "simulation", "run"),
    ("calibration.run_calibration", "calibration", "run_calibration"),
    ("cli.dispatch", "cli", "dispatch"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _module, _attr in WRAPPED))
SEMANTICS = ("reusable", "window-local", "partial-transfer", "bounded-reuse")

# Per-layer metric names with unit and direction, in report order.  Counts and
# times are per timed op, so runs of different length compare directly.
PER_LAYER = (
    [
        ("oracle.min_cost.p50_us", "us", "lower"),
        ("oracle.min_cost.op_share", "ratio", "lower"),
        ("oracle.scan.configs", "count/op", "lower"),
    ]
    + [(f"oracle.scan.configs_per_s.{name}", "1/s", "higher") for name in SEMANTICS]
    + [
        ("oracle.budget_exceeded", "count/op", "lower"),
        ("oracle.closed_form_mismatches", "count/op", "lower"),
        ("costs.law.p50_us", "us", "lower"),
        ("cli.bytes_out", "bytes/op", "lower"),
        ("cli.interpreter_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("cli.build_parser_ms", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    + [
        (f"{layer}.{stat}", unit, "lower")
        for layer in LAYERS
        for stat, unit in (("calls", "count/op"), ("ms", "ms/op"), ("self_ms", "ms/op"))
    ]
)


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self, max_spans: int = 200_000) -> None:
        self.max_spans = max_spans
        self.op_id = -1
        self.paused = False
        self.layer: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.stack: list[int] = []
        # span index -> (semantics, configurations scanned) for min_cost spans
        self.scans: dict[int, tuple[str, int]] = {}
        self.budget_exceeded = 0
        self.bytes_out = 0
        self._restore: list[tuple[object, str, object]] = []

    @property
    def full(self) -> bool:
        return len(self.start) >= self.max_spans

    def install(self) -> None:
        from sybilcost import calibration, cli, costs, oracle, resources, simulation

        modules = {
            "calibration": calibration,
            "cli": cli,
            "costs": costs,
            "oracle": oracle,
            "resources": resources,
            "simulation": simulation,
        }
        for layer, module_name, attr in WRAPPED:
            module = modules[module_name]
            original = getattr(module, attr)
            self._restore.append((module, attr, original))
            setattr(module, attr, self._wrap(layer, original, oracle))
        write_text = cli._write_text
        self._restore.append((cli, "_write_text", write_text))

        @functools.wraps(write_text)
        def counted_write(path, text):
            self.bytes_out += len(text.encode())
            return write_text(path, text)

        cli._write_text = counted_write

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _wrap(self, layer, fn, oracle_module):
        is_scan = layer == "oracle.min_cost"
        budget_error = oracle_module.PlanBudgetExceeded

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.layer.append(layer)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(index)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                self.budget_exceeded += 1
                raise
            finally:
                self.end[index] = time.perf_counter()
                self.stack.pop()
            if is_scan:
                scenario = args[0] if args else kwargs["scenario"]
                self.paused = True
                try:
                    semantics = oracle_module.allocation_semantics(scenario.spec).value
                finally:
                    self.paused = False
                self.scans[index] = (semantics, result.plans_examined)
            return result

        return traced

    def dump(self) -> dict:
        return {
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "scans": [[index, *scan] for index, scan in self.scans.items()],
            "budget_exceeded": self.budget_exceeded,
            "bytes_out": self.bytes_out,
        }

    def merge(self, dump: dict, op_id: int) -> None:
        """Append a child process's spans as the spans of one op."""
        offset = len(self.start)
        self.layer.extend(dump["layer"])
        self.start.extend(dump["start"])
        self.end.extend(dump["end"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in dump["parent"])
        self.op.extend(op_id for _ in dump["op"])
        for index, semantics, configs in dump["scans"]:
            self.scans[index + offset] = (semantics, configs)
        self.budget_exceeded += dump["budget_exceeded"]
        self.bytes_out += dump["bytes_out"]

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.dump(), handle, separators=(",", ":"))

    def layer_metrics(self, op_count: int, op_ms_total: float) -> dict[str, float]:
        """Per-op counts and times of every layer; ms is inclusive, self_ms excludes child spans."""
        import statistics  # here, not at the top: traced CLI children never load it

        count = max(op_count, 1)
        calls = dict.fromkeys(LAYERS, 0)
        inclusive = dict.fromkeys(LAYERS, 0.0)
        self_time = dict.fromkeys(LAYERS, 0.0)
        durations: dict[str, list[float]] = {"oracle.min_cost": [], "costs.law": []}
        for index, layer in enumerate(self.layer):
            duration = self.end[index] - self.start[index]
            calls[layer] += 1
            self_time[layer] += duration
            parent = self.parent[index]
            if parent >= 0:
                self_time[self.layer[parent]] -= duration
            # Inclusive time counts only the outermost span of a layer, so a
            # law calling another law is not counted twice.
            ancestor = parent
            while ancestor >= 0 and self.layer[ancestor] != layer:
                ancestor = self.parent[ancestor]
            if ancestor < 0:
                inclusive[layer] += duration
            if layer in durations:
                durations[layer].append(duration)
        metrics: dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = calls[layer] / count
            metrics[f"{layer}.ms"] = inclusive[layer] * 1e3 / count
            metrics[f"{layer}.self_ms"] = self_time[layer] * 1e3 / count
        for layer, key in (("oracle.min_cost", "oracle.min_cost.p50_us"), ("costs.law", "costs.law.p50_us")):
            metrics[key] = statistics.median(durations[layer]) * 1e6 if durations[layer] else 0.0
        metrics["oracle.min_cost.op_share"] = (
            inclusive["oracle.min_cost"] * 1e3 / op_ms_total if op_ms_total > 0 else 0.0
        )
        configs = dict.fromkeys(SEMANTICS, 0)
        scan_s = dict.fromkeys(SEMANTICS, 0.0)
        for index, (semantics, scanned) in self.scans.items():
            configs[semantics] += scanned
            scan_s[semantics] += self.end[index] - self.start[index]
        metrics["oracle.scan.configs"] = sum(configs.values()) / count
        for semantics in SEMANTICS:
            rate = configs[semantics] / scan_s[semantics] if scan_s[semantics] > 0 else 0.0
            metrics[f"oracle.scan.configs_per_s.{semantics}"] = rate
        metrics["oracle.budget_exceeded"] = self.budget_exceeded / count
        metrics["cli.bytes_out"] = self.bytes_out / count
        return metrics


def _child_main(argv: list[str]) -> int:
    import contextlib
    import io
    import sys

    spans_path, cli_argv = argv[0], argv[1:]
    from sybilcost import cli

    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.dispatch(cli_argv)
    finally:
        text = buffer.getvalue()
        tracer.bytes_out += len(text.encode())
        sys.stdout.write(text)
        sys.stdout.flush()
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    import sys

    sys.exit(_child_main(sys.argv[1:]))
