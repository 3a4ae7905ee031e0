"""Spans and counters around the poolblend layers, recorded from outside.

The tracer replaces each layer entry point where its callers look it up
(module attributes for functions, class attributes for methods) with a
wrapper that times the call as a span.  A span's self time is its duration
minus the time covered by its direct child spans, so per-layer self times
add up to the traced time without double counting.  ``install`` puts the
wrappers in place and ``uninstall`` restores the originals; an untraced run
never calls ``install`` and so runs the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

from poolblend.simplex import LPStatus

# (module, attribute, span name): every place a layer entry point is looked up
FUNCTION_PATCHES = [
    ("poolblend.pq", "build_pq", "pq.build"),
    ("poolblend.solve", "relax", "mccormick.relax"),
    ("poolblend.mccormick", "relax", "mccormick.relax"),
    ("poolblend.solve", "refresh_bounds", "mccormick.refresh"),
    ("poolblend.solve", "add_all_pooling_inequalities", "cuts.install"),
    ("poolblend.cuts", "add_all_pooling_inequalities", "cuts.install"),
    ("poolblend.solve", "add_valid_cuts", "cuts.separate"),
    ("poolblend.solve", "solve_lp", "simplex.solve_lp"),
    ("poolblend.simplex", "solve_lp", "simplex.solve_lp"),
    ("poolblend.solve", "solve_arrays", "simplex.solve"),
    ("poolblend.simplex", "solve_arrays", "simplex.solve"),
    ("poolblend.solve", "install_restriction", "restriction.install"),
    ("poolblend.restriction", "install_restriction", "restriction.install"),
    ("poolblend.solve", "derive_fractional_flows", "restriction.derive"),
    ("poolblend.restriction", "derive_fractional_flows", "restriction.derive"),
    ("poolblend.solve", "solve_mip", "solve.mip"),
    ("poolblend.solve", "initial_primal_search", "solve.heuristic"),
    ("poolblend.solve", "_cut_loop", "solve.cut_loop"),
    ("poolblend.solve", "branch_and_cut", "solve.branch_and_cut"),
]

# (module, class, method, span name); from_model is a classmethod
METHOD_PATCHES = [
    ("poolblend.simplex", "LPArrays", "from_model", "simplex.from_model"),
    ("poolblend.mccormick", "RelaxedModel", "clone", "mccormick.clone"),
    ("poolblend.model", "Model", "clone", "model.clone"),
    ("poolblend.model", "Model", "is_feasible", "model.is_feasible"),
]

# per_layer metric -> (unit, better); the order is the output order
PER_LAYER = {
    "simplex.solve_s": ("s", "lower"),
    "simplex.solves": ("count", "lower"),
    "simplex.iterations": ("count", "lower"),
    "simplex.iterations_per_solve": ("count", "lower"),
    "simplex.ms_per_iteration": ("ms", "lower"),
    "simplex.rows_max": ("count", "lower"),
    "simplex.cols_max": ("count", "lower"),
    "simplex.from_model_s": ("s", "lower"),
    "simplex.from_model_calls": ("count", "lower"),
    "simplex.nonoptimal": ("count", "lower"),
    "simplex.failures": ("count", "lower"),
    "mccormick.relax_s": ("s", "lower"),
    "mccormick.envelopes": ("count", "lower"),
    "mccormick.clone_s": ("s", "lower"),
    "mccormick.clone_calls": ("count", "lower"),
    "mccormick.refresh_s": ("s", "lower"),
    "model.clone_s": ("s", "lower"),
    "model.feasibility_s": ("s", "lower"),
    "model.feasibility_calls": ("count", "lower"),
    "cuts.install_s": ("s", "lower"),
    "cuts.separate_s": ("s", "lower"),
    "cuts.separate_calls": ("count", "lower"),
    "cuts.added": ("count", "higher"),
    "cuts.useful_ratio": ("ratio", "higher"),
    "pq.build_s": ("s", "lower"),
    "pq.rows": ("count", "lower"),
    "pq.cols": ("count", "lower"),
    "restriction.install_s": ("s", "lower"),
    "restriction.derive_s": ("s", "lower"),
    "restriction.found_ratio": ("ratio", "higher"),
    "restriction.mips": ("count", "lower"),
    "solve.heuristic_s": ("s", "lower"),
    "solve.heuristic_total_s": ("s", "lower"),
    "solve.root_cut_s": ("s", "lower"),
    "solve.root_cut_total_s": ("s", "lower"),
    "solve.tree_s": ("s", "lower"),
    "solve.nodes": ("count", "lower"),
    "solve.mip_s": ("s", "lower"),
    "solve.mip_nodes": ("count", "lower"),
    "solve.projection_accept_ratio": ("ratio", "higher"),
    "solve.projection_attempts": ("count", "lower"),
    "trace.traced_wall_s": ("s", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}


class _Frame:
    __slots__ = ("name", "parent", "start", "children", "seen_cut_loop")

    def __init__(self, name: str, parent: str | None, start: float):
        self.name = name
        self.parent = parent
        self.start = start
        self.children = 0.0
        self.seen_cut_loop = False


class Tracer:
    """Span stack plus per-name self and total time, call counts and counters."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.hits: dict[str, int] = defaultdict(int)
        self._stack: list[_Frame] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> _Frame:
        if name == "solve.cut_loop" and self._stack:
            # the first cut loop under a branch_and_cut span is the root loop
            owner = next(
                (f for f in reversed(self._stack) if f.name == "solve.branch_and_cut"), None
            )
            if owner is not None and not owner.seen_cut_loop:
                owner.seen_cut_loop = True
                name = "solve.root_cut_loop"
        parent = self._stack[-1].name if self._stack else None
        frame = _Frame(name, parent, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        duration = time.perf_counter() - frame.start
        self._stack.pop()
        self.self_s[frame.name] += duration - frame.children
        self.total_s[frame.name] += duration
        self.calls[frame.name] += 1
        if self._stack:
            self._stack[-1].children += duration

    def _observe(self, frame: _Frame, args, result) -> None:
        """Counters read off a call's arguments and result, at the boundary."""
        c = self.counts
        name = frame.name
        if name == "simplex.solve":
            rows, cols = args[0].A.shape
            self.maxima["rows"] = max(self.maxima["rows"], rows)
            self.maxima["cols"] = max(self.maxima["cols"], cols)
            c["iterations"] += result.iterations
            if result.status is not LPStatus.OPTIMAL:
                c["nonoptimal"] += 1
        elif name == "mccormick.relax":
            c["envelopes"] += len(result.envelopes)
        elif name == "cuts.separate":
            c["cuts_added"] += result
            c["useful_separations"] += result > 0
        elif name == "pq.build":
            model = result.model
            c["pq_rows"] += sum(1 for con in model.constraints.values() if con.active)
            c["pq_cols"] += len(model.variables)
        elif name == "restriction.derive":
            c["restored"] += 1
        elif name == "solve.mip":
            c["mip_nodes"] += result.nodes
        elif name == "solve.branch_and_cut":
            c["nodes"] += result.nodes
        elif name == "model.is_feasible" and frame.parent == "solve.branch_and_cut":
            # incumbent projection inside the tree (solve._try_incumbent)
            c["projection_attempts"] += 1
            c["projection_accepts"] += bool(result.feasible)

    def _wrap(self, fn, name: str, site: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.hits[site] += 1
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[f"{frame.name}.raised"] += 1
                raise
            finally:
                self._exit(frame)
            self._observe(frame, args, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in FUNCTION_PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, f"{module_name}.{attr}"))
        for module_name, cls_name, attr, name in METHOD_PATCHES:
            cls = getattr(importlib.import_module(module_name), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            site = f"{module_name}.{cls_name}.{attr}"
            if isinstance(original, classmethod):
                setattr(cls, attr, classmethod(self._wrap(original.__func__, name, site)))
            else:
                setattr(cls, attr, self._wrap(original, name, site))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def per_layer(self, passes: int, traced_wall: float, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics per pass: self seconds, call counts and ratios."""
        s, n, c = self.self_s, self.calls, self.counts
        iterations = c["iterations"]
        solves = n["simplex.solve"]
        mips = n["restriction.install"]
        values = {
            "simplex.solve_s": s["simplex.solve"],
            "simplex.solves": solves,
            "simplex.iterations": iterations,
            "simplex.iterations_per_solve": iterations / solves if solves else 0.0,
            "simplex.ms_per_iteration": 1000.0 * s["simplex.solve"] / iterations if iterations else 0.0,
            "simplex.rows_max": self.maxima["rows"],
            "simplex.cols_max": self.maxima["cols"],
            "simplex.from_model_s": s["simplex.from_model"],
            "simplex.from_model_calls": n["simplex.from_model"],
            "simplex.nonoptimal": c["nonoptimal"],
            "simplex.failures": c["simplex.solve.raised"],
            "mccormick.relax_s": s["mccormick.relax"],
            "mccormick.envelopes": c["envelopes"],
            "mccormick.clone_s": s["mccormick.clone"],
            "mccormick.clone_calls": n["mccormick.clone"],
            "mccormick.refresh_s": s["mccormick.refresh"],
            "model.clone_s": s["model.clone"],
            "model.feasibility_s": s["model.is_feasible"],
            "model.feasibility_calls": n["model.is_feasible"],
            "cuts.install_s": s["cuts.install"],
            "cuts.separate_s": s["cuts.separate"],
            "cuts.separate_calls": n["cuts.separate"],
            "cuts.added": c["cuts_added"],
            "cuts.useful_ratio": (
                c["useful_separations"] / n["cuts.separate"] if n["cuts.separate"] else 0.0
            ),
            "pq.build_s": s["pq.build"],
            "pq.rows": c["pq_rows"],
            "pq.cols": c["pq_cols"],
            "restriction.install_s": s["restriction.install"],
            "restriction.derive_s": s["restriction.derive"],
            "restriction.found_ratio": c["restored"] / mips if mips else 0.0,
            "restriction.mips": mips,
            "solve.heuristic_s": s["solve.heuristic"],
            "solve.heuristic_total_s": self.total_s["solve.heuristic"],
            "solve.root_cut_s": s["solve.root_cut_loop"],
            "solve.root_cut_total_s": self.total_s["solve.root_cut_loop"],
            "solve.tree_s": s["solve.branch_and_cut"] + s["solve.cut_loop"],
            "solve.nodes": c["nodes"],
            "solve.mip_s": s["solve.mip"],
            "solve.mip_nodes": c["mip_nodes"],
            "solve.projection_accept_ratio": (
                c["projection_accepts"] / c["projection_attempts"]
                if c["projection_attempts"]
                else 0.0
            ),
            "solve.projection_attempts": c["projection_attempts"],
        }
        # ratios, maxima and ms per iteration are already per-pass quantities
        per_pass_exempt = {
            "simplex.iterations_per_solve", "simplex.ms_per_iteration", "simplex.rows_max",
            "simplex.cols_max", "cuts.useful_ratio", "restriction.found_ratio",
            "solve.projection_accept_ratio",
        }
        out = {
            key: float(value) if key in per_pass_exempt else float(value) / passes
            for key, value in values.items()
        }
        out["trace.traced_wall_s"] = traced_wall
        out["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
        return out
