"""``repro serve`` with the CPU time of every fault run recorded.

    python3 perfbench/serve.py CPU_DIR [repro serve options]

Runs the service exactly as ``python3 -m repro serve`` does, with
:class:`runcpu.RunCpuTimes` installed so that each ``Pipeline.run``
the server's jobs make appends its CPU seconds under ``CPU_DIR``.
"""

import sys

from repro.cli import main
from runcpu import RunCpuTimes

if __name__ == "__main__":
    with RunCpuTimes(sys.argv[1]):
        status = main(["serve"] + sys.argv[2:])
    sys.exit(status)
