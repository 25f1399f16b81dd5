"""Compare benchmark records of two commits, workload by workload.

    python3 perfbench/compare.py BASE.jsonl HEAD.jsonl

Each file holds records appended by ``run.py --record`` (untraced runs; traced
records are skipped).  For each workload and end-to-end metric it prints each
side's median and quartiles, the share of pairs (runs with the same seed)
the head side won, and a verdict:

- better / worse (resolved): one side won at least nine tenths of the pairs,
  ties counting for neither, and the medians differ by more than the
  distance between the base side's quartiles;
- unresolved: the base side's own spread is wider than the metric's bound,
  and not every head run beats every base run;
- regression beyond bound: the head median is worse than the base median by
  more than the metric's bound;
- within bound: none of the above.

The metrics BENCHMARK.json does not gate use the tolerances in UNGATED;
``ops_failed_ratio`` has none: any rise of its median is a regression.
Exits 1 when any metric regressed beyond its bound.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# End-to-end metrics that run.py records but BENCHMARK.json does not gate,
# with the tolerance compare.py applies to them.
UNGATED = (
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("ops_failed_ratio", "ratio", "lower", 0.0),
)


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        if not record["trace"]:
            runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, head, sign, bound, pairs):
    """Verdict for one metric; `pairs` holds (base, head) values of runs with the same seed.

    `sign` is 1 when lower is better and -1 when higher is better.
    """
    q1, base_median, q3 = quartiles(base)
    head_median = quartiles(head)[1]
    head_wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    head_losses = sum(1 for b, h in pairs if sign * (h - b) > 0)
    spread = q3 - q1
    moved = abs(head_median - base_median) > spread
    if pairs and moved and head_wins >= 0.9 * len(pairs):
        return "better (resolved)"
    worse_share = sign * (head_median - base_median) / base_median if base_median else (
        float("inf") if sign * (head_median - base_median) > 0 else 0.0)
    if pairs and moved and head_losses >= 0.9 * len(pairs):
        return "worse (resolved)" + (", beyond bound" if worse_share > bound else "")
    all_better = all(sign * (h - b) < 0 for h in head for b in base)
    if base_median and spread / base_median > bound and not all_better:
        return "unresolved"
    if worse_share > bound:
        return "regression beyond bound"
    return "within bound"


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    metrics = [(name, unit, -1.0 if better == "higher" else 1.0, bound)
               for name, unit, better, bound in gated + list(UNGATED)]
    base_runs, head_runs = load(argv[0]), load(argv[1])
    regressed = False
    print(f"{'workload':<13} {'metric':<17} {'base median [q1, q3]':<38} "
          f"{'head median [q1, q3]':<38} {'head won':<9} verdict")
    for workload in sorted(set(base_runs) & set(head_runs)):
        base_by_seed = {r["header"]["seed"]: r for r in base_runs[workload]}
        head_by_seed = {r["header"]["seed"]: r for r in head_runs[workload]}
        seeds = sorted(set(base_by_seed) & set(head_by_seed))
        for name, unit, sign, bound in metrics:
            base = [r["metrics"][name]["value"] for r in base_runs[workload]]
            head = [r["metrics"][name]["value"] for r in head_runs[workload]]
            pairs = [(base_by_seed[s]["metrics"][name]["value"],
                      head_by_seed[s]["metrics"][name]["value"]) for s in seeds]
            won = sum(1 for b, h in pairs if sign * (h - b) < 0)
            text = verdict(base, head, sign, bound, pairs)
            regressed = regressed or "beyond bound" in text
            cells = []
            for values in (base, head):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] {unit}")
            print(f"{workload:<13} {name:<17} {cells[0]:<38} {cells[1]:<38} "
                  f"{f'{won}/{len(pairs)}':<9} {text}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
