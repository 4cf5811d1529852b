"""Host-speed probe, run as a side process during untraced passes.

Other tenants of the host slow every process on it by up to half, in phases
that last minutes. This process times a fixed exact-arithmetic routine (not
drdkit code, so no drdkit change moves it) every SLEEP_S and prints one line
`start end` per run of it, in the system-wide monotonic clock that
`time.perf_counter` reads in the benchmark process too. It exits when
terminated or when its parent process is gone.

    python3 perfbench/hostprobe.py <parent pid>
"""
from __future__ import annotations

import os
import sys
import time
from fractions import Fraction

SLEEP_S = 0.25


def reference_work() -> list:
    """A 16x16 Fraction matrix product."""
    a = [[Fraction((3 * i + 5 * j) % 4, 1 + (i + j) % 3) for j in range(16)] for i in range(16)]
    return [
        [sum((a[i][k] * a[k][j] for k in range(16)), Fraction(0)) for j in range(16)]
        for i in range(16)
    ]


def main(parent: int) -> None:
    while os.getppid() == parent:
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        print(f"{t0!r} {t1!r}", flush=True)
        time.sleep(SLEEP_S)


if __name__ == "__main__":
    main(int(sys.argv[1]))
