"""CPU time of single fault runs, wherever they run."""

from __future__ import annotations

import os
import time

from repro.faults import Pipeline


class RunCpuTimes:
    """CPU seconds of every ``Pipeline.run`` call while installed, in
    this process and in the pool workers forked from it: each process
    appends one line per run to ``<directory>/<pid>``, which any
    process can :meth:`take`.  CPU time leaves out the time a run
    waits for a CPU, which on a shared host makes the wall time of a
    run swing with the neighbours' load."""

    def __init__(self, directory: str):
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._original = None

    def __enter__(self):
        original = self._original = Pipeline.run
        directory = self.directory

        def run(pipeline, *args, **kwargs):
            start = time.thread_time()
            record = original(pipeline, *args, **kwargs)
            line = f"{time.thread_time() - start!r}\n".encode()
            fd = os.open(os.path.join(directory, str(os.getpid())),
                         os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, line)
            finally:
                os.close(fd)
            return record

        Pipeline.run = run
        return self

    def __exit__(self, *exc) -> None:
        Pipeline.run = self._original

    def take(self) -> list[float]:
        """The runs timed since the last call, and forget them."""
        seconds = []
        for name in os.listdir(self.directory):
            path = os.path.join(self.directory, name)
            with open(path) as handle:
                seconds.extend(float(line) for line in handle)
            os.remove(path)
        return seconds
