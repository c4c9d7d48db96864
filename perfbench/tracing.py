"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps each layer's public functions at every
``orbitsym`` module attribute (or class attribute) that binds them, and
``uninstall`` puts the originals back.  Each call is a span: name, start,
end, the enclosing span and the top-level span (one ``cli.main`` call,
i.e. one verify request).  Calls, total and self time (total minus the
time covered by child spans) are aggregated as the spans close.  The
tracer assumes one thread, which ``ORBITSYM_THREADS=1`` guarantees.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter_ns

from verdict import REPORT_NAMES

# layer -> (metric name, module, attribute path); metric names follow
# <layer>.<function>.
LAYERS = {
    "numerics": [
        ("numerics.qr_positive", "orbitsym.numerics", "qr_positive"),
        ("numerics.mat_exp", "orbitsym.numerics", "mat_exp"),
        ("numerics.commutator", "orbitsym.numerics", "commutator"),
        ("numerics.char_poly", "orbitsym.numerics", "char_poly"),
        ("numerics.central_diff", "orbitsym.numerics", "central_diff"),
    ],
    "model": [
        ("model.killing", "orbitsym.model", "SpecialLinearModel.killing"),
        ("model.split_kan", "orbitsym.model", "split_kan"),
        ("model.chamber_element", "orbitsym.model", "SpecialLinearModel.chamber_element"),
    ],
    "iwasawa": [
        ("iwasawa.iwasawa", "orbitsym.iwasawa", "iwasawa"),
        ("iwasawa.infinitesimal_iwasawa", "orbitsym.iwasawa", "infinitesimal_iwasawa"),
        ("iwasawa.fd_iwasawa_velocities", "orbitsym.iwasawa", "fd_iwasawa_velocities"),
    ],
    "orbit": [
        ("orbit.orbit_point", "orbitsym.orbit", "orbit_point"),
        ("orbit.tangent_vector", "orbitsym.orbit", "tangent_vector"),
        ("orbit.OrbitChart.coordinate_frame", "orbitsym.orbit", "OrbitChart.coordinate_frame"),
        ("orbit.OrbitChart.frame_generators", "orbitsym.orbit", "OrbitChart.frame_generators"),
        ("orbit.to_cotangent", "orbitsym.orbit", "to_cotangent"),
        ("orbit.from_cotangent", "orbitsym.orbit", "from_cotangent"),
    ],
    "symplectic": [
        ("symplectic.tautological", "orbitsym.symplectic", "tautological"),
        ("symplectic.omega_std_chart", "orbitsym.symplectic", "omega_std_chart"),
        ("symplectic.omega_kks_chart", "orbitsym.symplectic", "omega_kks_chart"),
        ("symplectic.graph_routes", "orbitsym.symplectic", "graph_routes"),
    ],
    "suites": [
        ("suites.run_suite", "orbitsym.suites", "run_suite"),
    ],
    "cli": [
        ("cli.main", "orbitsym.cli", "main"),
    ],
}

# run_suite spans are named per suite: suites.run_suite.<suite>.
PER_SUITE = "suites.run_suite"
SUITES = tuple(s for s in REPORT_NAMES if s != "all")

# Functions that run on every workload.  Only their times go into the
# benchmark's result line, so that no reported time is a structural zero;
# every function's times are in the full table.
TIMED_EVERYWHERE = (
    "numerics.qr_positive",
    "numerics.mat_exp",
    "numerics.char_poly",
    "model.killing",
    "model.split_kan",
    "model.chamber_element",
    "iwasawa.iwasawa",
    "iwasawa.infinitesimal_iwasawa",
    "orbit.orbit_point",
    "cli.main",
)

CHART_FORMS = ("symplectic.omega_std_chart", "symplectic.omega_kks_chart")


def span_names() -> list[str]:
    names = [name for entries in LAYERS.values() for name, _, _ in entries]
    return [n for n in names if n != PER_SUITE] + [f"{PER_SUITE}.{s}" for s in SUITES]


def pass_metrics(stats: dict) -> dict[str, float]:
    """Every per-layer metric of one traced pass."""
    out = {}
    for name in span_names():
        calls, total_ns, self_ns = stats.get(name, (0, 0, 0))
        out[f"{name}.calls"] = calls
        out[f"{name}.total_s"] = total_ns * 1e-9
        out[f"{name}.self_s"] = self_ns * 1e-9
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v[2] for k, v in stats.items() if k.split(".", 1)[0] == layer
        ) * 1e-9
    return out


def reported_metrics() -> list[tuple[str, str]]:
    """(name, unit) of the per-layer metrics in the result line."""
    out = [(f"{layer}.self_s", "s") for layer in LAYERS]
    out += [(f"{name}.calls", "count") for name in span_names()]
    out += [(f"{name}.{key}", "s") for name in TIMED_EVERYWHERE for key in ("self_s", "total_s")]
    out.append(("trace.overhead_frac", "frac"))
    return out


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.spans: list[tuple] | None = None  # (id, parent, root, name, start_ns, end_ns)
        self._stack: list[list] = []  # [id, child_ns, root]
        self._open: dict[str, int] = {}  # open spans per name, so recursion counts once
        self._next_id = 0
        self._patches: list[tuple] = []

    def reset(self, keep_spans: bool = False) -> None:
        self.stats = {}
        self.spans = [] if keep_spans else None

    def _wrap(self, name: str, fn):
        per_suite = name == PER_SUITE

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{args[1]}" if per_suite else name
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0, parent[2] if parent else span_id]
            self._stack.append(frame)
            self._open[label] = self._open.get(label, 0) + 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self._open[label] -= 1
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                entry = self.stats.setdefault(label, [0, 0, 0])
                entry[0] += 1
                if not self._open[label]:
                    entry[1] += duration
                entry[2] += duration - frame[1]
                if self.spans is not None:
                    self.spans.append(
                        (span_id, parent[0] if parent else None, frame[2], label, start, end)
                    )

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "orbitsym"]
        for entries in LAYERS.values():
            for name, module_name, path in entries:
                owner = sys.modules[module_name]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                if cls_path:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

