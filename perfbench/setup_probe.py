"""One set-up of a workload, timed by the process that starts this one.

Imports numpy, scipy and sparsegmm, generates the workload's data and
prints one line; the parent measures from starting this interpreter to
reading that line.  Usage: python3 perfbench/setup_probe.py WORKLOAD
"""

import sys

import run

if __name__ == "__main__":
    run.import_program()
    import workloads

    workloads.generate_inputs(workloads.WORKLOADS[sys.argv[1]])
    print("ready", flush=True)
