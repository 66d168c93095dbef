"""The repository's performance benchmark (see ``perfbench/README.md``).

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload against the public entry points
(``run_sweep``, ``run_case_study``, ``ModelingService.submit``) and prints
its metrics; the last stdout line is one JSON object.
"""
