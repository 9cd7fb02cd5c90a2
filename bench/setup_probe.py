"""Set-up probe, run in a fresh process by run.py: prints the seconds taken
to import hopfcyclic and load and validate one workload's inputs.

    python3 bench/setup_probe.py <workload>

The clock starts before anything but sys and time is imported, so the
stdlib modules hopfcyclic pulls in count toward the set-up time.
"""

import sys
import time


def main(workload):
    start = time.perf_counter()
    import inputs
    hc = inputs.import_package()
    inputs.load_inputs(hc, workload)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1])
