"""Record the byte-identity references that every benchmark op is checked against.

Writes perfbench/references.json: for every op of the verify-grid, datasets
and cli-cold workloads, the fingerprint the workload observes (exit code,
sha256 of stdout with the output directory replaced by <OUT>, sha256 of
every file written).

Run it once, on the commit whose outputs are the reference:
``python3 perfbench/make_references.py``.  Re-running it on a later commit
would bless whatever that commit prints.
"""

import json
import shutil
import tempfile
from pathlib import Path

from workloads import REFERENCES, SCRATCH, CliCold, Datasets, VerifyGrid


def main():
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="references-", dir=SCRATCH))
    try:
        references = {}
        for cls in (VerifyGrid, Datasets, CliCold):
            workload = cls({}, scratch)
            references[cls.name] = {item: workload.observe(item)[1] for item in workload.items}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    REFERENCES.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n")
    print(f"wrote {REFERENCES}")


if __name__ == "__main__":
    main()
