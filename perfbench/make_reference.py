"""Regenerate reference.json: the outputs every pinned workload is checked
against, to the tolerance of tests/data/convergence_golden.json.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are known good; the file is the
benchmark's correctness bar, so a change to it is a change to the bar.
"""

from __future__ import annotations

import json

from run import REFERENCE, load_program
from workloads import WORKLOADS

TOLERANCE = 1e-9


def main() -> None:
    el = load_program()
    reference: dict = {"tolerance": TOLERANCE}
    for name, workload in WORKLOADS.items():
        if workload.values is not None:
            prepared = workload.prepare(el, 0, None)
            reference[name] = workload.values(prepared.run(0))
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
