"""Workload definitions for the orbitsym benchmark.

A workload is a fixed list of ``orbitsym verify`` calls; one pass runs
every call once, in order.  The chambers are the sweep script's
``CONFIGS`` (n = 2..6, regular and wall).  Per-call seeds are drawn from
the benchmark seed, so the same seed gives the same inputs and every pass
of a run repeats the same calls.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# label -> (H as the CLI takes it, H as numbers)
CHAMBERS = {
    "n2-regular": ("1,-1", [1, -1]),
    "n2-wall": ("0,0", [0, 0]),
    "n3-regular": ("1,0,-1", [1, 0, -1]),
    "n3-wall": ("1,1,-2", [1, 1, -2]),
    "n4-regular": ("1.5,0.5,-0.5,-1.5", [1.5, 0.5, -0.5, -1.5]),
    "n4-wall": ("1,1,-1,-1", [1, 1, -1, -1]),
    "n5-regular": ("2,1,0,-1,-2", [2, 1, 0, -1, -2]),
    "n5-wall": ("1,1,1,1,-4", [1, 1, 1, 1, -4]),
    "n6-regular": ("2.5,1.5,0.5,-0.5,-1.5,-2.5", [2.5, 1.5, 0.5, -0.5, -1.5, -2.5]),
}

FACTOR_SUITES = ("iwasawa", "infinitesimal", "projection", "graph")
CHART_SUITES = ("theorem", "lagrangian-vertical", "lagrangian-horizontal")


@dataclass(frozen=True)
class Call:
    suite: str
    chamber: str
    samples: int

    @property
    def h_text(self) -> str:
        return CHAMBERS[self.chamber][0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: tuple[Call, ...]

    @property
    def chambers(self) -> list[str]:
        return sorted({c.chamber for c in self.calls})

    def call_seeds(self, seed: int) -> list[int]:
        """One CLI seed per call, fixed by the benchmark seed."""
        rng = random.Random(seed)
        return [rng.randrange(2**31) for _ in self.calls]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "chart-n6",
            "theorem and both lagrangian suites at the n=6 regular chamber (m=30): "
            "the chart-form stack (omega_std_chart, tautological) does nearly all the work",
            tuple(Call(s, "n6-regular", 1) for s in CHART_SUITES),
        ),
        Workload(
            "factor-sweep",
            "iwasawa, infinitesimal, projection and graph at all nine chambers: no chart "
            "forms; QR, mat_exp, the Iwasawa oracle and bundle round trips carry the load, and "
            "short calls expose per-call costs",
            tuple(Call(s, c, 6) for c in CHAMBERS for s in FACTOR_SUITES),
        ),
    )
}
