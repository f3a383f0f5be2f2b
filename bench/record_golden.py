"""Record golden.json: exit code and output digest of every benchmark operation.

    python3 bench/record_golden.py [--workload NAME ...]

Runs each workload's operation list once for every input variant (all seeds
map onto workloads.VARIANTS of them) and stores [name, exit code, digest]
rows. Record only from a commit whose outputs are known good: the benchmark
counts every later difference as a failed operation. Refuses to record an
operation that crashed.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args(argv)
    golden = json.loads(run.GOLDEN.read_text(encoding="utf-8")) if run.GOLDEN.exists() else {}
    _, ok, cli = run.set_up([workloads.CONFIGS[w] for w in workloads.WORKLOADS])
    for workload in args.workload or workloads.WORKLOADS:
        for variant in range(workloads.VARIANTS):
            rows = []
            for op in workloads.build(workload, variant):
                seconds, rc, dig = run.execute(op, ok, cli)
                if rc == -1:
                    print(f"{workload}/{variant}: {op.name} crashed", file=sys.stderr)
                    return 1
                rows.append([op.name, rc, dig])
            golden[f"{workload}/{variant}"] = rows
            print(f"{workload}/{variant}: {len(rows)} operations", flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
