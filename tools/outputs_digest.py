"""One sha256 over every output of the benchmark's case pools.

    PYTHONPATH=src python tools/outputs_digest.py

Run it from the repository root.  It solves every case of the four
``perfbench`` workloads at seeds 8191 and 4242, in pool order, and prints
two lines, each a hex digest and the number of outputs it covers.  The
first covers each output's value bits, translation, assignment,
``evaluations`` (``translations_tested`` for ``decide``), answer and
extras, so two trees print the same first line exactly when they give
bit-identical outputs on the pools.  The second leaves the work counters
``engine_rows`` and ``bound_rows`` out of the extras, so a change that
prunes more or less, with the same answers, moves only the first line.
``CDUT_THREADS`` must not change either line.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import cdut

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402  (perfbench/workloads.py)

SEEDS = (8191, 4242)
# extras that count work done rather than describe the answer
COUNTERS = ("engine_rows", "bound_rows")


def _record(result) -> dict:
    """The parts of one output that the digest covers, in exact form."""
    decision = isinstance(result, cdut.decision.DecisionResult)
    report = result.evidence if decision else result
    assignment = report.assignment
    return {
        "answer": result.answer if decision else None,
        "value": float(report.value).hex(),
        "translation": [float(x).hex() for x in np.asarray(report.translation, dtype=np.float64)],
        "assignment": None if assignment is None else np.asarray(assignment).tolist(),
        "tested": result.translations_tested if decision else report.evaluations,
        "extras": report.extras,
    }


def main() -> int:
    digest, answers = hashlib.sha256(), hashlib.sha256()
    outputs = 0
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            for cases in workloads.build_cases(workload, seed):
                for case in cases:
                    record = _record(case.call())
                    digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
                    if record["extras"]:
                        record["extras"] = {k: v for k, v in record["extras"].items() if k not in COUNTERS}
                    answers.update(json.dumps(record, sort_keys=True).encode() + b"\n")
                    outputs += 1
    print(f"{digest.hexdigest()} {outputs} outputs")
    print(f"{answers.hexdigest()} {outputs} outputs without work counters")
    return 0


if __name__ == "__main__":
    sys.exit(main())
