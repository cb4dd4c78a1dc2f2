"""Host-speed probes: fixed kernels outside quadrel, timed after every op.

The host this benchmark runs on changes speed by tens of percent over
seconds, and different kinds of code slow down by different amounts.
Each workload therefore names the probe that does its kind of work:

- ``solver``: a small SLSQP solve with Python callbacks, small symmetric
  eigendecompositions in a Python loop and frozen-dataclass ``replace``
  calls, like the single loop and the FORM double loop;
- ``bulk``: a large normal draw, a quadratic form over it and an ``exp``,
  like one Monte Carlo chunk.

A probe is not a metric.  An op's cost is its time divided by the mean
of the probe times just before and just after it, so host drift cancels
and code changes do not: quadrel is never called here.
"""

from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np
from scipy.optimize import minimize

KINDS = ("solver", "bulk")


@dataclass(frozen=True)
class _Item:
    x: float
    w: float


def _objective(x):
    return float((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2
                 + (x[2] - 1.0) ** 2 + (x[3] - x[2]) ** 2)


def _inside_ball(x):
    return 4.0 - float(x @ x)


class HostProbe:
    """Calling it runs the kernel of ``kind`` once and returns its time in seconds."""

    def __init__(self, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown probe kind {kind!r}; choose from {', '.join(KINDS)}")
        self.kind = kind
        rng = np.random.default_rng(0)
        a = rng.standard_normal((100, 6, 6))
        self._small = a + a.transpose(0, 2, 1)
        self._items = [_Item(float(i), 2.0) for i in range(100)]
        b = rng.standard_normal((11, 11))
        self._form = b + b.T

    def __call__(self) -> float:
        t0 = perf_counter()
        if self.kind == "solver":
            self._solver()
        else:
            self._bulk()
        return perf_counter() - t0

    def _solver(self):
        minimize(_objective, np.zeros(4), method="SLSQP",
                 constraints=[{"type": "ineq", "fun": _inside_ball}],
                 options={"maxiter": 200, "ftol": 1e-12})
        for m in self._small:
            np.linalg.eigh(m)
        items = self._items
        for _ in range(10):
            items = [replace(it, x=it.x + 1.0) for it in items]

    def _bulk(self):
        x = np.random.default_rng(1).standard_normal((60_000, 11))
        np.count_nonzero(((x @ self._form) * x).sum(axis=1) < 0.0)
        np.exp(0.1 * x[:, 0])
