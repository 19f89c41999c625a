"""Build one workload's inputs in a fresh process, then exit.

run.py starts this script several times and times each from its start to
the moment it reports its inputs ready, which is the benchmark's
``setup_s``: interpreter start, importing xdboost and making the workload's
inputs from its seed. The last line printed is the system-wide monotonic
clock at that moment.

    python3 perfbench/prepare.py <workload> <seed> <workdir> [--toy]
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv):
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    import workloads

    workloads.make(name, toy="--toy" in argv[3:]).prepare(seed, workdir)
    print(time.clock_gettime(time.CLOCK_MONOTONIC))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
