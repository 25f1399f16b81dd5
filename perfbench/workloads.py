"""The benchmark's workloads and the worker process that measures one of them.

Each workload builds a fixed set of op inputs in its constructor (its set-up)
and runs one op per `run` call, returning the op's wall time and, if its
output differs from the reference, what differed.  The workload seed only
permutes the order of ops inside each round, so every seed does the same
work.  Rounds are run whole, so a run's ops always hold every input equally
often.

Workloads, all closed-loop with one client:

- verify-grid: ``cli.dispatch(["verify-all"])`` in process.  Many small
  oracle instances, where per-call overhead counts next to the scan.
- oracle-scale: one ``oracle.min_cost`` call on a large instance, then
  ``verify_bounds`` and an exact comparison with the closed form.  Few large
  instances, where the configuration scan is nearly all of the time.
- datasets: one ``scripts/make_datasets.py`` ``main()`` pass in process.  Law
  calls, simulations and emission, with no oracle call at all: the bypass
  workload for every oracle change.
- cli-cold: one fresh interpreter running one README command.  The only
  workload that pays interpreter start-up and package import on every op.

Run as a script (by run.py), this module is the worker: one process per run,
so peak RSS belongs to one workload only.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SCRATCH = ROOT / ".bench_tmp"
OUT_DIR = ROOT / ".bench_out"
REFERENCES = BENCH_DIR / "references.json"
OUT_TOKEN = "<OUT>"

# The README's commands except verify-all; <OUT> is a fresh directory.
CLI_COMMANDS = (
    "cost --class bnd --s 10 --T 100 --rmin 1",
    "cost --class partial --s 4 --T 10 --rmin 1 --alpha 0.5",
    "crossover --T 10 --rmin 1",
    "crossover --table",
    "classify --spec pos-stake",
    "taxonomy",
    "oracle --spec device-bound --s 2 --T 3",
    "simulate --spec device-bound --m 50 --s 400 --n 200 --T 10",
    "fig3",
    "calibrate eth --out <OUT>",
    "calibrate btc --out <OUT>",
    "sweep --preset fig1 --out <OUT>/fig1.csv",
)
CLI_BOOT = "from sybilcost.cli import main; main()"

# (label, semantics, s, T, r_min, alpha or k).  The non-dyadic thresholds
# stay in even though the oracle and the closed form disagree in the last
# bit there: that disagreement is what exact arithmetic has to remove.
ORACLE_INSTANCES = (
    ("pos-stake s=6 T=3 r_min=1.0", "reusable", 6, 3, 1.0, None),
    ("pos-stake s=6 T=3 r_min=0.7", "reusable", 6, 3, 0.7, None),
    ("device-bound s=8 T=3 r_min=tau=1.0", "window-local", 8, 3, 1.0, None),
    ("device-bound s=8 T=3 r_min=tau=0.7", "window-local", 8, 3, 0.7, None),
    ("partial alpha=0.5 s=6 T=3 r_min=1.0", "partial-transfer", 6, 3, 1.0, 0.5),
    ("bounded-reuse k=2 s=6 T=4 r_min=1.0", "bounded-reuse", 6, 4, 1.0, 2),
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(directory: Path) -> dict[str, str]:
    return {path.name: sha256(path.read_bytes()) for path in sorted(directory.iterdir())}


def child_env() -> dict[str, str]:
    """Environment of every child interpreter: the checkout's src/ first, no output-dir override."""
    env = {key: value for key, value in os.environ.items() if key != "SYBILCOST_OUT"}
    env["PYTHONPATH"] = "src"
    return env


def import_sybilcost():
    """Import the package from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "sybilcost" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no sybilcost package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import sybilcost

    if Path(sybilcost.__file__).resolve().parent != (src / "sybilcost").resolve():
        raise SystemExit(f"benchmark: imported sybilcost from {sybilcost.__file__}, not {src}")


@dataclass
class Outcome:
    """One op: wall seconds, stdout bytes, and a problem (None when the output matched)."""

    seconds: float
    stdout_bytes: int = 0
    problem: str | None = None
    # An exact closed-form mismatch within the oracle's own feasibility
    # tolerance: the op counts as failed, but the output is not wrong.
    tolerated: bool = False


class ReferenceChecked:
    """A workload whose ops are checked byte for byte against references.json.

    Subclasses define `observe(item)`, returning the op's wall seconds, its
    fingerprint (exit code and digests) and its stdout size; make_references.py
    records the same fingerprints.
    """

    def run(self, item):
        seconds, observed, stdout_bytes = self.observe(item)
        expected = self.reference[item]
        differing = sorted(key for key in expected.keys() | observed.keys()
                           if observed.get(key) != expected.get(key))
        problem = None
        if differing:
            problem = (f"{item}: {', '.join(differing)} differ from the reference "
                       f"(exit {observed['exit']})")
        return Outcome(seconds, stdout_bytes, problem)


class VerifyGrid(ReferenceChecked):
    name = "verify-grid"
    in_process = True

    def __init__(self, references, scratch):
        import_sybilcost()
        from sybilcost import cli

        self.cli = cli
        self.reference = references.get(self.name)
        self.items = ("verify-all",)

    def observe(self, item):
        buffer = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            code = self.cli.dispatch([item])
        seconds = time.perf_counter() - start
        out = buffer.getvalue().encode()
        return seconds, {"exit": code, "stdout_sha256": sha256(out)}, len(out)


class OracleScale:
    name = "oracle-scale"
    in_process = True

    def __init__(self, references, scratch):
        from dataclasses import replace

        import_sybilcost()
        from sybilcost import costs, oracle, resources

        self.costs, self.oracle = costs, oracle
        self.closed_form_mismatches = 0
        self.instances = {}
        for label, semantics, s, T, r_min, extra in ORACLE_INSTANCES:
            if semantics == "reusable":
                spec = replace(resources.preset("pos-stake"), r_min=r_min)
            elif semantics == "window-local":
                spec = replace(resources.preset("device-bound"), r_min=r_min, tau=r_min)
            else:
                spec = resources.ResourceSpec(
                    name=label,
                    divisible=True,
                    additive_influence=True,
                    temporally_reusable=True if semantics == "partial-transfer" else None,
                    identity_transferable=None if semantics == "partial-transfer" else True,
                    alpha=extra if semantics == "partial-transfer" else None,
                    k=extra if semantics == "bounded-reuse" else None,
                    r_min=r_min,
                )
            scenario = oracle.OracleScenario(s=s, T=T, spec=spec)
            self.instances[label] = (semantics, scenario)
        self.items = tuple(self.instances)

    def closed_form(self, semantics, scenario):
        s, T, spec = scenario.s, scenario.T, scenario.spec
        if semantics == "reusable":
            return self.costs.cost_parallelizable(s, T, spec.r_min).total
        if semantics == "window-local":
            return self.costs.cost_throughput_bounded(s, T, spec.r_min).total
        if semantics == "partial-transfer":
            return self.costs.cost_partial_transferability(s, T, spec.r_min, spec.alpha).model_cost
        return self.costs.cost_bounded_reuse(s, T, spec.r_min, spec.k).total

    def run(self, item):
        semantics, scenario = self.instances[item]
        start = time.perf_counter()
        result = self.oracle.min_cost(scenario)
        report = self.oracle.verify_bounds(result, scenario)
        expected = self.closed_form(semantics, scenario)
        matches = result.min_cost == expected
        seconds = time.perf_counter() - start
        if not report.passed:
            failed = [check.detail for check in report.checks if not check.passed]
            return Outcome(seconds, problem=f"{item}: verify_bounds failed: {'; '.join(failed)}")
        if matches:
            return Outcome(seconds)
        self.closed_form_mismatches += 1
        problem = f"{item}: oracle {result.min_cost!r} != closed form {expected!r}"
        tolerated = abs(result.min_cost - expected) <= self.oracle.FEASIBILITY_EPS
        return Outcome(seconds, problem=problem, tolerated=tolerated)


class Datasets(ReferenceChecked):
    name = "datasets"
    in_process = True

    def __init__(self, references, scratch):
        import importlib.util

        import_sybilcost()
        script = ROOT / "scripts" / "make_datasets.py"
        loader = importlib.util.spec_from_file_location("make_datasets", script)
        if loader is None:
            raise SystemExit(f"benchmark: cannot load {script}")
        self.module = importlib.util.module_from_spec(loader)
        loader.loader.exec_module(self.module)
        self.scratch = scratch
        self.reference = references.get(self.name)
        self.items = ("make_datasets",)

    def observe(self, item):
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        buffer = io.StringIO()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(buffer):
                code = self.module.main(["--out", str(out)])
            seconds = time.perf_counter() - start
            observed = {"exit": code, "files": file_digests(out)}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return seconds, observed, len(buffer.getvalue().encode())


class CliCold(ReferenceChecked):
    """Ops run in child processes; a traced child counts its own output bytes."""

    name = "cli-cold"
    in_process = False

    def __init__(self, references, scratch):
        if not (ROOT / "src" / "sybilcost" / "cli.py").is_file():
            raise SystemExit(f"benchmark: no sybilcost package under {ROOT / 'src'}")
        self.scratch = scratch
        self.reference = references.get(self.name)
        self.items = CLI_COMMANDS
        self.tracer = None

    def observe(self, item):
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        spans = out.with_suffix(".spans.json")
        try:
            if self.tracer is None:
                launcher = [sys.executable, "-c", CLI_BOOT]
            else:
                launcher = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans)]
            start = time.perf_counter()
            proc = subprocess.run(launcher + item.replace(OUT_TOKEN, str(out)).split(),
                                  cwd=ROOT, env=child_env(), capture_output=True, timeout=60)
            seconds = time.perf_counter() - start
            stdout = proc.stdout.replace(str(out).encode(), OUT_TOKEN.encode())
            observed = {"exit": proc.returncode, "stdout_sha256": sha256(stdout),
                        "files": file_digests(out)}
            if self.tracer is not None and spans.exists():
                self.tracer.merge(json.loads(spans.read_text()), self.tracer.op_id)
        finally:
            shutil.rmtree(out, ignore_errors=True)
            spans.unlink(missing_ok=True)
        return seconds, observed, 0


WORKLOADS = {cls.name: cls for cls in (VerifyGrid, OracleScale, Datasets, CliCold)}


class Tally:
    """Op times per mode (untraced, then traced) and the failures of all ops."""

    def __init__(self, modes):
        self.op_ms = [[] for _ in range(modes)]
        self.wall_s = [0.0] * modes
        self.problems = {}
        self.failed, self.wrong = 0, False

    def add(self, mode, outcome):
        self.op_ms[mode].append(outcome.seconds * 1e3)
        if outcome.problem is not None:
            self.failed += 1
            self.wrong = self.wrong or not outcome.tolerated
            self.problems[outcome.problem] = self.problems.get(outcome.problem, 0) + 1

    def result(self):
        """The untraced ops' times with the failures of every op."""
        return {
            "op_ms": self.op_ms[0],
            "wall_s": self.wall_s[0],
            "attempted": sum(len(times) for times in self.op_ms),
            "failed": self.failed,
            "wrong": self.wrong,
            "problems": [{"problem": text, "ops": count} for text, count in self.problems.items()],
        }


@contextlib.contextmanager
def tracing(workload, tracer):
    if workload.in_process:
        tracer.install()
    else:
        workload.tracer = tracer
    try:
        yield
    finally:
        if workload.in_process:
            tracer.uninstall()
        else:
            workload.tracer = None


def measure(workload, rng, seconds, max_ops, tracer=None):
    """Run whole rounds (every input once, in seed order) until `seconds` have passed.

    With a tracer, rounds alternate between untraced and traced, so both
    modes see the same stretches of a machine whose speed drifts.
    """
    modes = 1 if tracer is None else 2
    tally = Tally(modes)
    start = time.perf_counter()
    rounds = 0
    while True:
        mode = rounds % modes
        order = list(workload.items)
        rng.shuffle(order)
        round_start = time.perf_counter()
        with tracing(workload, tracer) if mode else contextlib.nullcontext():
            for item in order:
                if mode:
                    tracer.op_id = len(tally.op_ms[mode])
                outcome = workload.run(item)
                tally.add(mode, outcome)
                if mode:
                    tracer.bytes_out += outcome.stdout_bytes
                if max_ops and len(tally.op_ms[mode]) >= max_ops:
                    break
        tally.wall_s[mode] += time.perf_counter() - round_start
        rounds += 1
        if rounds % modes:
            continue
        if max_ops and all(len(times) >= max_ops for times in tally.op_ms):
            break
        if time.perf_counter() - start >= seconds or (tracer is not None and tracer.full):
            break
    return tally


def _fresh_interpreter_ms(runs):
    """Medians over fresh interpreters: wall ms of `python -c pass`, in-process ms of importing the CLI."""
    code = ("import time; t = time.perf_counter(); import sybilcost.cli; "
            "print((time.perf_counter() - t) * 1e3)")
    bare, imports = [], []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, check=True, timeout=60)
        bare.append((time.perf_counter() - start) * 1e3)
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(),
                              check=True, capture_output=True, text=True, timeout=60)
        imports.append(float(proc.stdout))
    return statistics.median(bare), statistics.median(imports)


def _build_parser_ms(runs):
    import_sybilcost()
    from sybilcost import cli

    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        cli.build_parser()
        samples.append((time.perf_counter() - start) * 1e3)
    return statistics.median(samples)


def traced_run(workload, rng, seconds, max_ops):
    """Per-layer metrics of one traced run, from rounds alternating with untraced ones."""
    from tracer import Tracer

    probes = 2 if max_ops else 5
    interpreter_ms, import_ms = _fresh_interpreter_ms(probes)
    layer = {
        "cli.interpreter_ms": interpreter_ms,
        "cli.import_ms": import_ms,
        "cli.build_parser_ms": _build_parser_ms(probes * 4),
    }
    tracer = Tracer()
    mismatches_before = getattr(workload, "closed_form_mismatches", 0)
    tally = measure(workload, rng, seconds, max_ops, tracer)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}.json")
    plain_ms, traced_ms = tally.op_ms
    layer.update(tracer.layer_metrics(len(traced_ms), sum(traced_ms)))
    # Untraced rounds run the same inputs, so their mismatches count in the rate too.
    mismatches = getattr(workload, "closed_form_mismatches", 0) - mismatches_before
    layer["oracle.closed_form_mismatches"] = mismatches / (len(plain_ms) + len(traced_ms))
    layer["trace.overhead_ratio"] = statistics.median(traced_ms) / statistics.median(plain_ms)
    return {**tally.result(), "per_layer": layer}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Measure one workload (worker process).")
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-ops", type=int, default=0, help="stop after this many timed ops")
    parser.add_argument("--setup-only", action="store_true",
                        help="build the inputs and exit: one set-up sample")
    args = parser.parse_args(argv)

    references = json.loads(REFERENCES.read_text())
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        workload = WORKLOADS[args.workload](references, scratch)
        if args.setup_only:
            return 0
        rng = random.Random(args.seed)
        workload.run(workload.items[0])  # warm-up: caches, .pyc files, lazy set-up
        if args.trace:
            run = traced_run(workload, rng, args.seconds, args.max_ops)
        else:
            run = measure(workload, rng, args.seconds, args.max_ops).result()
        who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
        run["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
        print(json.dumps(run))
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
