'''Set-up probe: a fresh process that imports corm, prepares one
workload and prints "ready" with the wall-clock time; run.py subtracts
the time it launched the process.

    python3 perfbench/probe.py <workload> <seed> <seconds>
'''

import sys


def main():
    import time

    import workloads
    workloads.prepare(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))
    print('ready', time.time(), flush=True)


if __name__ == '__main__':
    main()
