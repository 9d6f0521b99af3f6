"""The process that hosts the batch system under test.

Usage: ``python3 perfbench/batch_host.py ROOT``.  Imports ``repro`` from
``ROOT/src``, builds ``Engine(executor="processes", jobs=nproc)`` and prints
``{"ready": true}``; from then on every stdin line naming a trace file is
audited with ``Engine.verify_file(path, 2)`` plus the text render the CLI
prints, and answered with one JSON line: wall time, op count and verdict
digests.  An empty line or EOF ends the process after a final JSON line
with its peak RSS (self and reaped children, in KiB).
"""

import json
import resource
import sys
import time


def main() -> int:
    root = sys.argv[1]
    sys.path[:0] = [root + "/src", root]
    from repro import Engine
    from repro.engine.executors import default_jobs

    from perfbench.verdicts import digest, no_count

    engine = Engine(executor="processes", jobs=default_jobs())
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        path = line.strip()
        if not path:
            break
        t0 = time.perf_counter()
        report = engine.verify_file(path, 2)
        report.render()
        wall = time.perf_counter() - t0
        results = report.results
        print(
            json.dumps(
                {
                    "wall_s": wall,
                    "ops": report.total_ops,
                    "registers": len(results),
                    "no_registers": no_count(results),
                    "digest": digest(results, witness=False),
                    "witness_digest": digest(results, witness=True),
                }
            ),
            flush=True,
        )
    print(
        json.dumps(
            {
                "maxrss_kib": max(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
                )
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
