"""End-to-end benchmark of the 2-AV verifier (batch audits and served sessions).

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``perfbench/README.md``.
"""
