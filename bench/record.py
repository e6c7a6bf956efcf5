"""Record the reference output of every pool member into ``reference.json``.

    python3 bench/record.py [--workload NAME ...]

Run at the commit whose outputs become the reference.  Each output must pass
the workload's independent checks before it is recorded.  Characteristic
polynomial resonances are recorded as the complete list of integer roots
k >= 2, found with sympy's exact rational root finder rather than with
``nfc``; where ``nfc`` misses a root above its scan ceiling (a known defect,
see README.md) the complete list is recorded, so a fix makes the failures
go away instead of mismatching.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import import_nfc  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def record(name: str, nfc) -> dict:
    workload = WORKLOADS[name]()
    refs = {}
    known = 0
    for key in workload.pool():
        item = workload.build(nfc, key)
        workload.prepare([(key, item)])
        output = workload.run(nfc, item)
        ref = workload.reference(nfc, key, item, output)
        kind, why = workload.check(nfc, key, item, output, ref)
        if kind == "fail":
            raise SystemExit(f"{name} {key}: output fails its checks: {why}")
        known += kind == "known"
        refs[key] = ref
    print(f"{name}: {len(refs)} references, {known} outputs with a known defect")
    return refs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    path = BENCH / "reference.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    nfc = import_nfc()
    for name in args.workload or sorted(WORKLOADS):
        refs[name] = record(name, nfc)
    lines = []
    for name in sorted(refs):
        body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(val)}" for key, val in refs[name].items())
        lines.append(f"{json.dumps(name)}: {{\n{body}\n}}")
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
