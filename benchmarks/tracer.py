"""Per-layer spans for coarsekit, installed from outside the program.

``install`` replaces each traced function with a wrapper: every module
attribute of the ``coarsekit`` package that binds the function (``from``
imports included, and values of module-level dicts such as the CLI's
dispatch table), or the attribute on the class for methods.  Each call
records a span (id, layer, start, end, parent span) plus counts taken at
the same boundary.  Spans stay in memory until ``dump``.

A target that no longer exists is skipped; the metrics built on it are
reported as absent by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pickle
import sys
import time
from collections import defaultdict

# layer -> targets as (module, attribute path); "cmd_*" takes every match
LAYERS = {
    "groups.ball_space": [("coarsekit.groups", "ball_space")],
    "groups.word_norm_table": [("coarsekit.groups", "word_norm_table")],
    "metric.validate": [("coarsekit.metric", "FiniteMetricSpace._validate")],
    "metric.lp_distance": [("coarsekit.metric", "lp_distance")],
    "metric.sparse_sub": [("coarsekit.metric", "SparseVector.sub")],
    "covers.complement_distances": [("coarsekit.covers", "Cover.complement_distances")],
    "covers.extension_cover": [("coarsekit.covers", "extension_cover")],
    "covers.subset_oracle": [("coarsekit.covers", "Cover.find_uncovered_subset")],
    "covers.construct": [
        ("coarsekit.covers", "ball_cover"),
        ("coarsekit.covers", "brick_cover_zl"),
        ("coarsekit.covers", "interval_cover_z"),
    ],
    "covers.shrink": [("coarsekit.covers", "shrink_to_irreducible")],
    "property_a.family": [
        ("coarsekit.property_a", "a_infinity_family"),
        ("coarsekit.property_a", "family_from_covers"),
    ],
    "property_a.variation_report": [("coarsekit.property_a", "variation_report")],
    "property_a.coarse_embedding": [("coarsekit.property_a", "coarse_embedding")],
    "dimension.independent_audit": [("coarsekit.dimension", "independent_audit")],
    "dimension.greedy": [("coarsekit.dimension", "greedy_min_multiplicity")],
    "dimension.profile": [
        ("coarsekit.dimension", "growth_curve"),
        ("coarsekit.dimension", "gromov_profile"),
    ],
    "jsonutil.emit": [
        ("coarsekit._jsonutil", "canonical_json"),
        ("coarsekit._jsonutil", "csv_text"),
    ],
    "cli": [("coarsekit.cli", "cmd_*")],
}


def _cache_miss_rows(args):
    cover = args[0]
    return len(cover) if getattr(cover, "_comp", None) is None else 0


# layer -> (hook before the call, or None; hook after it returns) -> counts
_COUNTS = {
    "groups.ball_space": (None, lambda args, result, _: {"groups.dist_cells": len(result) ** 2}),
    "groups.word_norm_table": (None, lambda args, result, _: {"groups.bfs_elements": len(result)}),
    "covers.complement_distances": (
        _cache_miss_rows,
        lambda args, result, rows: {"covers.complement_rows": rows},
    ),
    "covers.extension_cover": (None, lambda args, result, _: {"covers.extension_accepted": 1}),
    "property_a.coarse_embedding": (
        None,
        lambda args, result, _: {"property_a.band_pairs": result.audit["pairs_checked"]},
    ),
    "jsonutil.emit": (None, lambda args, result, _: {"jsonutil.emit_bytes": _utf8_len(result)}),
}


def _utf8_len(text):
    return len(text) if text.isascii() else len(text.encode())


class Recorder:
    def __init__(self, run_id):
        self.run_id = run_id
        self.layers = []        # index -> layer name
        self.installed = set()  # layers with a wrapped target, and "<layer>:counts"
        self.broken = set()     # "<layer>:counts" whose hook no longer fits the program
        self.spans = []         # (id, layer index, start, end, parent id); 0 is the root
        self.counts = defaultdict(int)
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, layer, fn):
        index = self.layers.index(layer)
        before, after = _COUNTS.get(layer, (None, None))
        spans, counts, stack, broken = self.spans, self.counts, self._stack, self.broken
        ids = self._ids
        clock = time.perf_counter
        hook_key = layer + ":counts"

        def count(hook, *hook_args):
            try:
                return hook(*hook_args)
            except (AttributeError, KeyError, TypeError):
                broken.add(hook_key)
                return None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids)
            stack.append(sid)
            state = count(before, args) if before else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, index, start, end, parent))
            if after:
                for name, value in (count(after, args, result, state) or {}).items():
                    counts[name] += value
            return result

        return traced

    def dump(self, path):
        with open(path, "wb") as fh:
            pickle.dump(
                {
                    "run_id": self.run_id,
                    "layers": self.layers,
                    "installed": sorted(self.installed - self.broken),
                    "spans": self.spans,
                    "counts": dict(self.counts),
                },
                fh,
                protocol=pickle.HIGHEST_PROTOCOL,
            )


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if name == "coarsekit" or name.startswith("coarsekit.")]


def _rebind(original, replacement):
    """Point every package-level binding of ``original`` at ``replacement``."""
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif type(value) is dict:
                for k, v in list(value.items()):
                    if v is original:
                        value[k] = replacement


def _resolve(module_name, path):
    """(owner, attribute name, function) triples for one target; [] if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return []
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return []
    if attr.endswith("*"):
        prefix = attr[:-1]
        return [(owner, k, v) for k, v in sorted(vars(owner).items()) if k.startswith(prefix) and callable(v)]
    fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return [] if fn is None else [(owner, attr, fn)]


def install(run_id) -> Recorder:
    import coarsekit.cli  # noqa: F401  (loads every module whose bindings get replaced)

    recorder = Recorder(run_id)
    recorder.layers = list(LAYERS)
    for layer, targets in LAYERS.items():
        for module_name, path in targets:
            for owner, attr, fn in _resolve(module_name, path):
                wrapper = recorder.wrap(layer, fn)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                else:
                    _rebind(fn, wrapper)
                recorder.installed.add(layer)
                if layer in _COUNTS:
                    recorder.installed.add(layer + ":counts")
    return recorder


# -- aggregation (runs in the benchmark process) ------------------------------


def summarize(dumps) -> dict:
    """Totals over the dumps of one workload run: self time and calls per
    layer, counts, and the lp_distance calls made under variation_report."""
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    installed = None
    for dump in dumps:
        layers = dump["layers"]
        installed = set(dump["installed"]) if installed is None else installed & set(dump["installed"])
        for name, value in dump["counts"].items():
            counts[name] += value
        spans = dump["spans"]
        covered = defaultdict(float)
        parent_of, layer_of = {}, {}
        for sid, index, start, end, parent in spans:
            covered[parent] += end - start
            parent_of[sid], layer_of[sid] = parent, layers[index]
        for sid, index, start, end, parent in spans:
            layer = layers[index]
            self_s[layer] += (end - start) - covered[sid]
            calls[layer] += 1
            if layer == "metric.lp_distance":
                up = parent
                while up and layer_of[up] != "property_a.variation_report":
                    up = parent_of[up]
                if up:
                    counts["property_a.variation_pairs"] += 1
    return {"self_s": dict(self_s), "calls": dict(calls), "counts": dict(counts), "installed": installed or set()}


# per-layer metric -> (unit, layers it needs)
METRICS = {
    "groups.ball_space_s": ("s", ["groups.ball_space"]),
    "groups.windows": ("count", ["groups.ball_space"]),
    "groups.dist_cells": ("count", ["groups.ball_space:counts"]),
    "groups.cells_per_s": ("1/s", ["groups.ball_space:counts"]),
    "groups.word_norm_table_s": ("s", ["groups.word_norm_table"]),
    "groups.bfs_elements": ("count", ["groups.word_norm_table:counts"]),
    "metric.validate_s": ("s", ["metric.validate"]),
    "metric.validate_calls": ("count", ["metric.validate"]),
    "metric.lp_distance_s": ("s", ["metric.lp_distance"]),
    "metric.lp_distance_calls": ("count", ["metric.lp_distance"]),
    "metric.sparse_sub_s": ("s", ["metric.sparse_sub"]),
    "metric.sparse_sub_calls": ("count", ["metric.sparse_sub"]),
    "covers.complement_distances_s": ("s", ["covers.complement_distances"]),
    "covers.complement_rows": ("count", ["covers.complement_distances:counts"]),
    "covers.extension_cover_s": ("s", ["covers.extension_cover"]),
    "covers.extension_attempts": ("count", ["covers.extension_cover"]),
    "covers.extension_accepted": ("count", ["covers.extension_cover:counts"]),
    "covers.extension_accept_ratio": ("ratio", ["covers.extension_cover:counts"]),
    "covers.subset_oracle_s": ("s", ["covers.subset_oracle"]),
    "covers.subset_oracle_calls": ("count", ["covers.subset_oracle"]),
    "covers.construct_s": ("s", ["covers.construct"]),
    "covers.shrink_s": ("s", ["covers.shrink"]),
    "property_a.family_s": ("s", ["property_a.family"]),
    "property_a.variation_report_s": ("s", ["property_a.variation_report"]),
    "property_a.variation_pairs": ("count", ["property_a.variation_report", "metric.lp_distance"]),
    "property_a.coarse_embedding_s": ("s", ["property_a.coarse_embedding"]),
    "property_a.band_pairs": ("count", ["property_a.coarse_embedding:counts"]),
    "dimension.independent_audit_s": ("s", ["dimension.independent_audit"]),
    "dimension.independent_audit_calls": ("count", ["dimension.independent_audit"]),
    "dimension.greedy_s": ("s", ["dimension.greedy"]),
    "dimension.profile_s": ("s", ["dimension.profile"]),
    "jsonutil.emit_s": ("s", ["jsonutil.emit"]),
    "jsonutil.emit_bytes": ("count", ["jsonutil.emit:counts"]),
    "jsonutil.emit_mb_per_s": ("MB/s", ["jsonutil.emit:counts"]),
    "cli.self_s": ("s", ["cli"]),
    "other_s": ("s", []),
    "trace_overhead_frac": ("ratio", []),
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(summary, traced_wall_s, untraced_wall_s) -> dict:
    """Per-layer metric -> value for one traced workload run; None when absent.

    ``other_s`` is the traced wall time less every named self time, so the
    self times and ``other_s`` add up to ``traced_wall_s`` by construction.
    It holds interpreter start, imports, argument parsing, code outside the
    named functions and the tracer's own cost.  ``trace_overhead_frac`` is
    ``traced_wall_s / untraced_wall_s - 1``.
    """
    s, c, n = summary["self_s"], summary["calls"], summary["counts"]
    values = {
        "groups.ball_space_s": s.get("groups.ball_space", 0.0),
        "groups.windows": c.get("groups.ball_space", 0),
        "groups.dist_cells": n.get("groups.dist_cells", 0),
        "groups.cells_per_s": _ratio(n.get("groups.dist_cells", 0), s.get("groups.ball_space", 0.0)),
        "groups.word_norm_table_s": s.get("groups.word_norm_table", 0.0),
        "groups.bfs_elements": n.get("groups.bfs_elements", 0),
        "metric.validate_s": s.get("metric.validate", 0.0),
        "metric.validate_calls": c.get("metric.validate", 0),
        "metric.lp_distance_s": s.get("metric.lp_distance", 0.0),
        "metric.lp_distance_calls": c.get("metric.lp_distance", 0),
        "metric.sparse_sub_s": s.get("metric.sparse_sub", 0.0),
        "metric.sparse_sub_calls": c.get("metric.sparse_sub", 0),
        "covers.complement_distances_s": s.get("covers.complement_distances", 0.0),
        "covers.complement_rows": n.get("covers.complement_rows", 0),
        "covers.extension_cover_s": s.get("covers.extension_cover", 0.0),
        "covers.extension_attempts": c.get("covers.extension_cover", 0),
        "covers.extension_accepted": n.get("covers.extension_accepted", 0),
        "covers.extension_accept_ratio": _ratio(
            n.get("covers.extension_accepted", 0), c.get("covers.extension_cover", 0)
        ),
        "covers.subset_oracle_s": s.get("covers.subset_oracle", 0.0),
        "covers.subset_oracle_calls": c.get("covers.subset_oracle", 0),
        "covers.construct_s": s.get("covers.construct", 0.0),
        "covers.shrink_s": s.get("covers.shrink", 0.0),
        "property_a.family_s": s.get("property_a.family", 0.0),
        "property_a.variation_report_s": s.get("property_a.variation_report", 0.0),
        "property_a.variation_pairs": n.get("property_a.variation_pairs", 0),
        "property_a.coarse_embedding_s": s.get("property_a.coarse_embedding", 0.0),
        "property_a.band_pairs": n.get("property_a.band_pairs", 0),
        "dimension.independent_audit_s": s.get("dimension.independent_audit", 0.0),
        "dimension.independent_audit_calls": c.get("dimension.independent_audit", 0),
        "dimension.greedy_s": s.get("dimension.greedy", 0.0),
        "dimension.profile_s": s.get("dimension.profile", 0.0),
        "jsonutil.emit_s": s.get("jsonutil.emit", 0.0),
        "jsonutil.emit_bytes": n.get("jsonutil.emit_bytes", 0),
        "jsonutil.emit_mb_per_s": _ratio(n.get("jsonutil.emit_bytes", 0) / 2**20, s.get("jsonutil.emit", 0.0)),
        "cli.self_s": s.get("cli", 0.0),
        "other_s": traced_wall_s - sum(s.values()),
        "trace_overhead_frac": _ratio(traced_wall_s, untraced_wall_s) - 1.0,
    }
    installed = summary["installed"]
    for name, (_, needs) in METRICS.items():
        if not all(layer in installed for layer in needs):
            values[name] = None
    return values
