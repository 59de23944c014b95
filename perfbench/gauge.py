"""Machine speed, read with a fixed reference kernel between measurements.

On a virtual machine that shares its cores with other tenants, speed drifts
by 10-30% within minutes, so raw times of the same code spread by 15-30%
from run to run (measured on a 2-vCPU KVM guest).  A `Gauge` times the reference kernel
before the first measurement and after each one.  `scale()` returns the
factor that turns the time measured since the previous reading into
reference seconds: seconds on a machine where the kernel takes REFERENCE_S.
Drift that slows the program and the kernel alike cancels in the ratio.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

REFERENCE_S = 0.02


def reference_kernel():
    """Fixed work in the program's three kinds of cost, calling nothing of
    diffusionlab: a scalar Runge-Kutta loop with a Python right-hand side,
    small-array numpy expressions with banded solves, and float formatting
    as in the CSV writers."""

    def rhs(x, y, z):
        return z, -y - 0.1 * z * (1.0 + x * 1e-3)

    x, y, z, h = 0.0, 1.0, 0.0, 1e-3
    for _ in range(2000):
        k1y, k1z = rhs(x, y, z)
        k2y, k2z = rhs(x + 0.2 * h, y + 0.2 * h * k1y, z + 0.2 * h * k1z)
        k3y, k3z = rhs(x + 0.3 * h, y + h * (0.075 * k1y + 0.225 * k2y), z + h * (0.075 * k1z + 0.225 * k2z))
        k4y, k4z = rhs(x + 0.8 * h, y + h * (0.9 * k1y - 3.7 * k2y + 3.6 * k3y),
                       z + h * (0.9 * k1z - 3.7 * k2z + 3.6 * k3z))
        ny = y + h * (0.1 * k1y + 0.4 * k3y + 0.5 * k4y)
        nz = z + h * (0.1 * k1z + 0.4 * k3z + 0.5 * k4z)
        if abs(ny - y - h * k1y) <= abs(ny):
            x, y, z = x + h, ny, nz

    u = np.linspace(1.0, 2.0, 800)
    ab = np.zeros((3, 800))
    for _ in range(200):
        lu = -2.0 * u
        lu[:-1] += u[1:]
        lu[1:] += u[:-1]
        res = u - 1.0 - 1e-3 * u**2.0 * lu
        ab[0, 1:] = -1e-3 * u[:-1] ** 2
        ab[1] = 1.0 + 2e-3 * u**2
        ab[2, :-1] = -1e-3 * u[1:] ** 2
        u = np.maximum(u - 0.1 * solve_banded((1, 1), ab, res), 0.5)

    "".join(f"{v:.17g},{v * 0.5:.17g}\n" for v in np.linspace(0.0, 1.0, 4000).tolist())


def reference_seconds() -> float:
    """Median of three timings of the reference kernel."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Gauge:
    def __init__(self):
        self.readings = [reference_seconds()]

    def scale(self) -> float:
        self.readings.append(reference_seconds())
        return REFERENCE_S / (0.5 * (self.readings[-2] + self.readings[-1]))
