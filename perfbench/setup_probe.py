"""Set-up of one workload in a fresh interpreter, timed from outside.

Imports sharpweights from src/, builds the workload's inputs and makes one
small warm-up call into each layer the workload times, then exits.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import workloads


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    workloads.import_package()
    workloads.Workload(name, seed).warmup()


if __name__ == "__main__":
    main()
