"""Measure one cold set-up of a workload in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload>

Prints the seconds taken to import ``bestarm`` and build the workload's
instances and gap profiles.  ``run.py`` starts a few of these so that
``setup_s`` is a median over fresh processes.
"""

import sys

from workloads import set_up

if __name__ == "__main__":
    print(repr(set_up(sys.argv[1])[0]))
