"""Set-up time of one fresh interpreter: import nepsolve and build the problem.

Prints the seconds from just before ``import nepsolve`` until the workload's
problem generator returns, which every CLI call pays before it solves.

    python3 perfbench/setup_probe.py <workload> <n>
"""

import sys
from time import perf_counter

from workloads import WORKLOADS, generate


def main():
    wl, n = WORKLOADS[sys.argv[1]], int(sys.argv[2])
    t0 = perf_counter()
    import nepsolve  # noqa: F401  (the import is part of what is timed)

    generate(wl, n)
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main()
