"""Sample statistics, the environment fingerprint and compare mode."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``0 < q <= 1``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def summary(values) -> dict:
    """Sample count, median, quartiles and range of one metric."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def source_digest(root: str) -> str:
    """sha256 over every file under ``src/`` (path + bytes), so a
    result identifies the code it measured even outside git."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def fingerprint(root: str) -> dict:
    """Python version, CPU count, load average and code identity."""
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "commit": commit,
            "src_digest": source_digest(root)}


# -- compare mode ---------------------------------------------------------------


def load_results(path: str) -> list[dict]:
    """Result objects from a results file (one JSON object a line)."""
    results = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                results.append(json.loads(line))
    return results


def _spread(values) -> str:
    s = summary(values)
    return (f"{s['median']:.4g} [{s['q1']:.4g}..{s['q3']:.4g}] "
            f"n={s['n']}")


def compare(path_a: str, path_b: str) -> list[str]:
    """Per-(workload, metric) deltas of B's median against A's, each
    side with its quartiles over the runs in its file."""
    sides = []
    for path in (path_a, path_b):
        grouped: dict = {}
        for result in load_results(path):
            for name, metric in result["metrics"].items():
                key = (result["workload"], result["trace"], name)
                grouped.setdefault(key, []).append(metric["value"])
        sides.append(grouped)
    lines = [f"A = {path_a}", f"B = {path_b}",
             f"{'workload':<18} {'metric':<34} {'A median [q1..q3]':<34} "
             f"{'B median [q1..q3]':<34} delta"]
    for key in sorted(set(sides[0]) | set(sides[1])):
        workload, _, name = key
        a, b = sides[0].get(key), sides[1].get(key)
        if not a or not b:
            lines.append(f"{workload:<18} {name:<34} only in "
                         f"{'A' if a else 'B'}")
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        delta = (f"{(mb - ma) / ma * 100:+.1f}%" if ma else "n/a")
        lines.append(f"{workload:<18} {name:<34} {_spread(a):<34} "
                     f"{_spread(b):<34} {delta}")
    return lines
