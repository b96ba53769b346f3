"""Spans around the public functions of paritylab, recorded from outside.

``Tracer.install`` replaces every binding of a traced function -- in its own
module, in the modules that import it and in the package namespace -- with a
wrapper that records one span (name, start, end, parent, group, count).
``uninstall`` puts the originals back. Spans stay in memory until the run
writes them out. Nothing under ``src/`` knows about this module.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# layer -> public functions of that module whose calls are timed
TRACED = {
    "graph": ("parse_graph", "build_graph", "components_after_removal"),
    "matching": ("max_matching",),
    "solver": ("find_parity_factor", "build_parity_gadget", "verify_factor", "brute_force_factor"),
    "lovasz": ("decide_by_enumeration", "deficiency", "verify_witness", "serialize_witness"),
    "connectivity": ("edge_connectivity",),
    "generators": ("random_regular", "extremal_construction"),
    "theorems": ("check_main_conditions",),
    "experiment": ("run_verification_experiment",),
    "cli": ("main",),
}

# counts computed from a call's inputs or result, after its span has ended
COUNTS = {
    "graph.parse_graph": lambda args, result: result.edge_count,
    "matching.max_matching": lambda args, result: args[0].n,
    "lovasz.decide_by_enumeration": lambda args, result: 3 ** args[0].n,
    # a connected graph costs n max-flows: n-1 sinks plus the witness rerun
    "connectivity.edge_connectivity": lambda args, result: args[0].n,
    "experiment.run_verification_experiment": lambda args, result: len(result.rows),
}

NAME, START, END, PARENT, GROUP, COUNT = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.group = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [sys.modules["paritylab"]] + [
            sys.modules[f"paritylab.{layer}"] for layer in TRACED
        ]
        for layer, names in TRACED.items():
            home = sys.modules[f"paritylab.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if module.__dict__.get(fname) is original:
                        self._patches.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, fname, original = self._patches.pop()
            setattr(module, fname, original)

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.group, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        keys = ("name", "start", "end", "parent", "group", "count")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def totals(spans, weights) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds, self seconds, calls and summed count,
    each span weighted by ``weights[group]`` (spans of other groups are skipped)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[str, dict[str, float]] = {}
    for i, span in enumerate(spans):
        w = weights.get(span[GROUP])
        if w is None:
            continue
        row = out.setdefault(span[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0.0, "count": 0.0})
        duration = span[END] - span[START]
        row["s"] += w * duration
        row["self_s"] += w * (duration - child[i])
        row["calls"] += w
        row["count"] += w * span[COUNT]
    return out


def _ancestor_named(spans, i, name) -> bool:
    i = spans[i][PARENT]
    while i >= 0:
        if spans[i][NAME] == name:
            return True
        i = spans[i][PARENT]
    return False


def layer_metrics(spans, weights, check_weights, overhead_s) -> dict[str, float]:
    """The per-layer metrics of one traced run.

    ``weights`` maps the set-up and traced-round groups to 1/repetitions, so a
    figure is one set-up's share plus one round's; ``check_weights`` does the
    same for the check pass, which alone calls the brute-force oracle.
    """
    t = totals(spans, weights)
    checks = totals(spans, check_weights)

    def get(name, key="s", table=t):
        return table.get(name, {}).get(key, 0.0)

    def ratio(num, den, scale):
        return scale * num / den if den else 0.0

    witnesses = sum(
        weights.get(span[GROUP], 0.0)
        for i, span in enumerate(spans)
        if span[NAME] == "lovasz.serialize_witness" and _ancestor_named(spans, i, "cli.main")
    )
    return {
        "graph.parse_graph_s": get("graph.parse_graph"),
        "graph.edges_parsed": get("graph.parse_graph", "count"),
        "graph.build_graph_s": get("graph.build_graph"),
        "graph.components_after_removal_s": get("graph.components_after_removal"),
        "matching.max_matching_s": get("matching.max_matching"),
        "matching.max_matching_calls": get("matching.max_matching", "calls"),
        "matching.gadget_nodes": get("matching.max_matching", "count"),
        "matching.us_per_gadget_node": ratio(
            get("matching.max_matching"), get("matching.max_matching", "count"), 1e6
        ),
        "solver.find_parity_factor_s": get("solver.find_parity_factor"),
        "solver.find_parity_factor_self_s": get("solver.find_parity_factor", "self_s"),
        "solver.build_parity_gadget_self_s": get("solver.build_parity_gadget", "self_s"),
        "solver.verify_factor_s": get("solver.verify_factor"),
        "solver.brute_force_factor_s": get("solver.brute_force_factor", table=checks),
        "lovasz.decide_by_enumeration_s": get("lovasz.decide_by_enumeration"),
        "lovasz.codes_swept": get("lovasz.decide_by_enumeration", "count"),
        "lovasz.ns_per_code": ratio(
            get("lovasz.decide_by_enumeration"), get("lovasz.decide_by_enumeration", "count"), 1e9
        ),
        "lovasz.deficiency_s": get("lovasz.deficiency"),
        "lovasz.verify_witness_s": get("lovasz.verify_witness"),
        "connectivity.edge_connectivity_s": get("connectivity.edge_connectivity"),
        "connectivity.maxflows": get("connectivity.edge_connectivity", "count"),
        "connectivity.us_per_maxflow": ratio(
            get("connectivity.edge_connectivity"),
            get("connectivity.edge_connectivity", "count"),
            1e6,
        ),
        "generators.random_regular_s": get("generators.random_regular"),
        "generators.extremal_construction_s": get("generators.extremal_construction"),
        "theorems.check_main_conditions_s": get("theorems.check_main_conditions"),
        "experiment.run_verification_experiment_self_s": get(
            "experiment.run_verification_experiment", "self_s"
        ),
        "experiment.rows": get("experiment.run_verification_experiment", "count"),
        "cli.main_s": get("cli.main"),
        "cli.main_self_s": get("cli.main", "self_s"),
        "cli.witnesses_emitted": witnesses,
        "trace.overhead_s": overhead_s,
    }
