"""Time ``import semidp.cli`` in a fresh interpreter, with the host speed around it.

Run as a script with the checkout's ``src/`` on ``PYTHONPATH``. It prints
three numbers, in seconds: the import time, and the fastest time of a
pure-Python probe just before and just after the import. The probe imports
nothing, so the import measured is a cold one.
"""

from __future__ import annotations

import time

PROBE_REPEATS = 100


def dict_probe() -> int:
    """Fixed dict-and-sort work in pure Python."""
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return sorted(counts.values())[-1]


def fastest_probe() -> float:
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        dict_probe()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> None:
    before = fastest_probe()
    start = time.perf_counter()
    import semidp.cli  # noqa: F401
    took = time.perf_counter() - start
    print(took, before, fastest_probe())


if __name__ == "__main__":
    main()
