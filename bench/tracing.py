"""Spans around fieldfit's public functions, recorded from outside the package.

:func:`installed` replaces public functions on fieldfit's modules (and two
methods on its classes) with wrappers that record one span per call: name,
start, end, parent span, process and benchmark phase.  The package itself
is not modified; the originals are put back when the context exits.

Pool workers are forked by ``fit_parallel`` while the wrappers are in
place, so they record spans too.  A worker writes the spans it recorded to
a spool file when its ``fit_adaptive`` call returns, which happens before
the parent receives that result, and the ``fit_parallel`` wrapper reads
them back (:meth:`Tracer.collect`) once the call returns.  Every span stays in memory until the run
ends and the trace is written out.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import os
import time
from pathlib import Path

import reference


class Tracer:
    """In-memory span store shared by the wrappers of one benchmark run."""

    def __init__(self, spool_dir: Path):
        self.owner = os.getpid()
        self.spool_dir = Path(spool_dir)
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.phase = "setup"
        self._ids = itertools.count()

    def call(self, name, fn, args, kwargs, counts=None):
        pid = os.getpid()
        span = {
            "id": f"{pid}:{next(self._ids)}",
            "name": name,
            "parent": self.stack[-1] if self.stack else None,
            "pid": pid,
            "phase": self.phase,
        }
        self.stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self.stack.pop()
            self.spans.append(span)
        if counts is not None:
            span["counts"] = counts(args, kwargs, result)
        return result

    def ship(self):
        """In a pool worker: move this process's spans to a spool file."""
        pid = os.getpid()
        if pid == self.owner:
            return
        mine = [s for s in self.spans if s["pid"] == pid]
        if not mine:
            return
        self.spans = [s for s in self.spans if s["pid"] != pid]
        path = self.spool_dir / f"{pid}-{mine[0]['id'].split(':')[1]}.json"
        with open(path, "w") as fh:
            json.dump(mine, fh)

    def collect(self):
        """In the benchmark process: take in the spans that workers spooled."""
        for path in sorted(self.spool_dir.glob("*.json")):
            with open(path) as fh:
                self.spans.extend(json.load(fh))
            path.unlink()


# ---------------------------------------------------------------------------
# counts recorded with the spans of particular functions


def _fit_counts(args, kwargs, result):
    W, y, config = args[0], args[1], args[2]
    n, m = W.shape
    gap = float("nan")
    if config.lam1 > 0 or config.lam2 > 0:
        gap = reference.rel_duality_gap(W, y, result.beta, config.lam1, config.lam2)
    return {
        "sweeps": int(result.iterations),
        "design_entries": int(n * m),
        "active": int(result.active_set_size),
        "uncertified": int(not result.converged),
        "rel_gap": gap,
    }


def _features_counts(args, kwargs, result):
    return {"entries": int(result.size)}


def _eval_counts(args, kwargs, result):
    return {"pairs": int(result.shape[0]) * len(args[1])}


def _fit_adaptive_counts(args, kwargs, result):
    reports = result[1]
    return {"rounds": len(reports), "added": int(reports[-1].added)}


def _fit_parallel_counts(args, kwargs, result):
    return {"workers": int(result[1].max_concurrent)}


def _solve_counts(args, kwargs, result):
    diag = result.diagnostics
    mesh = args[0].mesh
    dirichlet = sum(len(mesh.face_nodes(f)) for f in args[0].dirichlet)
    return {
        "cg_iterations": int(diag["iterations"]) if diag["method"] == "cg" else 0,
        "unknowns": int(mesh.n_nodes - dirichlet),
    }


def _save_counts(args, kwargs, result):
    sink = args[1]
    return {"bytes": os.path.getsize(sink) if isinstance(sink, (str, Path)) else 0}


# (module, attribute, span name, counts); a dotted attribute is a method.
# fieldfit.adaptive imports shepard_features by name, so both bindings are
# wrapped; fit_log_field reaches fit through fieldfit.elastic_net.
WRAPPED = (
    ("fieldfit.partition", "fit_parallel", "partition.fit_parallel", _fit_parallel_counts),
    ("fieldfit.partition", "fit_adaptive", "adaptive.fit_adaptive", _fit_adaptive_counts),
    ("fieldfit.partition", "save", "partition.save", _save_counts),
    ("fieldfit.partition", "load", "partition.load", None),
    ("fieldfit.partition", "locate_many", "geometry.locate_many", None),
    ("fieldfit.partition", "GlobalSurrogate.evaluate", "partition.GlobalSurrogate.evaluate", None),
    ("fieldfit.fields", "FieldData.piecewise_eval", "fields.FieldData.piecewise_eval", None),
    ("fieldfit.elastic_net", "fit", "elastic_net.fit", _fit_counts),
    ("fieldfit.rbf", "shepard_features", "rbf.shepard_features", _features_counts),
    ("fieldfit.adaptive", "shepard_features", "rbf.shepard_features", _features_counts),
    ("fieldfit.rbf", "shepard_eval", "rbf.shepard_eval", _eval_counts),
    ("fieldfit.adaptive", "residual_indicators", "adaptive.residual_indicators", None),
    ("fieldfit.adaptive", "l2_misfit_parts", "fields.l2_misfit_parts", None),
    ("fieldfit.adaptive", "mark", "adaptive.mark", None),
    ("fieldfit.adaptive", "enrich", "adaptive.enrich", None),
    ("fieldfit.darcy", "triangulate", "darcy.triangulate", None),
    ("fieldfit.darcy", "line_mesh", "darcy.line_mesh", None),
    ("fieldfit.darcy", "solve_darcy", "darcy.solve_darcy", _solve_counts),
    ("fieldfit.darcy", "pressure_rel_error", "darcy.pressure_rel_error", None),
)


def _wrap(tracer, name, fn, counts, is_method):
    if is_method:
        # counts see the arguments after ``self``
        def method(self, *args, **kwargs):
            return tracer.call(name, lambda *a, **k: fn(self, *a, **k), args, kwargs, counts)

        return method

    def function(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs, counts)
        if name == "adaptive.fit_adaptive":
            tracer.ship()
        elif name == "partition.fit_parallel":
            tracer.collect()
        return result

    return function


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every function in :data:`WRAPPED` for the duration of the block."""
    saved = []
    try:
        for module_name, attr, name, counts in WRAPPED:
            owner = importlib.import_module(module_name)
            *outer, last = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            saved.append((owner, last, original))
            setattr(owner, last, _wrap(tracer, name, original, counts, bool(outer)))
        yield tracer
    finally:
        for owner, last, original in reversed(saved):
            setattr(owner, last, original)


# ---------------------------------------------------------------------------
# reading the spans


def self_times(spans):
    """Span id -> its duration minus the part of it that its children cover.

    Children may run concurrently (subdomain fits in pool workers), so their
    intervals are merged before they are taken off the parent's duration.
    """
    by_id = {s["id"]: s for s in spans}
    children = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


def summary(spans):
    """Per span name: calls, total seconds and self seconds."""
    selfs = self_times(spans)
    out = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

# name -> (unit, better); the README says which end-to-end metric each moves
LAYER_METRICS = {
    "elastic_net.fit_s": ("s", "lower"),
    "elastic_net.fits": ("count", "lower"),
    "elastic_net.sweeps": ("count", "lower"),
    "elastic_net.design_entries": ("count", "lower"),
    "elastic_net.active": ("count", "lower"),
    "elastic_net.uncertified": ("count", "lower"),
    "elastic_net.max_rel_gap": ("1", "lower"),
    "rbf.features_s": ("s", "lower"),
    "rbf.feature_entries": ("count", "lower"),
    "rbf.eval_s": ("s", "lower"),
    "rbf.eval_calls": ("count", "lower"),
    "rbf.eval_pairs": ("count", "lower"),
    "adaptive.rounds": ("count", "lower"),
    "adaptive.added": ("count", "lower"),
    "adaptive.residual_s": ("s", "lower"),
    "adaptive.misfit_s": ("s", "lower"),
    "adaptive.mark_s": ("s", "lower"),
    "adaptive.enrich_s": ("s", "lower"),
    "partition.subdomain_s_sum": ("s", "lower"),
    "partition.subdomain_s_max": ("s", "lower"),
    "partition.imbalance": ("1", "lower"),
    "partition.parallel_efficiency": ("1", "higher"),
    "partition.locate_s": ("s", "lower"),
    "partition.save_s": ("s", "lower"),
    "partition.load_s": ("s", "lower"),
    "partition.surrogate_bytes": ("bytes", "lower"),
    "darcy.triangulate_s": ("s", "lower"),
    "darcy.coefficient_s": ("s", "lower"),
    "darcy.solve_s": ("s", "lower"),
    "darcy.cg_iterations": ("count", "lower"),
    "darcy.unknowns": ("count", "lower"),
    "darcy.error_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans, traced_rounds):
    """Per-layer figures from the spans of a traced run.

    Times and counts of the timed part are per round (totals over the
    traced rounds divided by their number), summed over processes, so
    ``elastic_net.fit_s`` adds the busy time of both pool workers.  The
    subdomain figures are per ``fit_parallel`` call and ``save_s`` and
    ``surrogate_bytes`` per ``save`` call, set-up included, since
    mesh-transfer fits and saves only in its set-up.
    """
    run = [s for s in spans if s["phase"] == "run"]
    per = 1.0 / traced_rounds
    by_name = {}
    for s in run:
        by_name.setdefault(s["name"], []).append(s)

    def total(name, key=None):
        rows = by_name.get(name, [])
        if key is None:
            return per * sum(s["end"] - s["start"] for s in rows)
        return per * sum(s["counts"][key] for s in rows)

    def count(name):
        return per * len(by_name.get(name, []))

    fits = by_name.get("elastic_net.fit", [])
    gaps = [s["counts"]["rel_gap"] for s in fits if s["counts"]["rel_gap"] == s["counts"]["rel_gap"]]
    out = {
        "elastic_net.fit_s": total("elastic_net.fit"),
        "elastic_net.fits": count("elastic_net.fit"),
        "elastic_net.sweeps": total("elastic_net.fit", "sweeps"),
        "elastic_net.design_entries": total("elastic_net.fit", "design_entries"),
        "elastic_net.active": total("elastic_net.fit", "active"),
        "elastic_net.uncertified": total("elastic_net.fit", "uncertified"),
        "elastic_net.max_rel_gap": max(gaps, default=0.0),
        "rbf.features_s": total("rbf.shepard_features"),
        "rbf.feature_entries": total("rbf.shepard_features", "entries"),
        "rbf.eval_s": total("rbf.shepard_eval"),
        "rbf.eval_calls": count("rbf.shepard_eval"),
        "rbf.eval_pairs": total("rbf.shepard_eval", "pairs"),
        "adaptive.rounds": total("adaptive.fit_adaptive", "rounds"),
        "adaptive.added": total("adaptive.fit_adaptive", "added"),
        "adaptive.residual_s": total("adaptive.residual_indicators"),
        "adaptive.misfit_s": total("fields.l2_misfit_parts"),
        "adaptive.mark_s": total("adaptive.mark"),
        "adaptive.enrich_s": total("adaptive.enrich"),
        "partition.locate_s": total("geometry.locate_many"),
        "partition.load_s": _mean(s["end"] - s["start"] for s in by_name.get("partition.load", [])),
        "darcy.triangulate_s": total("darcy.triangulate") + total("darcy.line_mesh"),
        "darcy.cg_iterations": total("darcy.solve_darcy", "cg_iterations"),
        "darcy.unknowns": total("darcy.solve_darcy", "unknowns"),
        "darcy.error_s": total("darcy.pressure_rel_error"),
    }

    saves = [s for s in spans if s["name"] == "partition.save"]
    out["partition.save_s"] = _mean(s["end"] - s["start"] for s in saves)
    out["partition.surrogate_bytes"] = _mean(s["counts"]["bytes"] for s in saves)

    sums, maxes, imbalances, efficiencies = [], [], [], []
    for call in (s for s in spans if s["name"] == "partition.fit_parallel"):
        subs = [s["end"] - s["start"] for s in spans
                if s["name"] == "adaptive.fit_adaptive" and s["parent"] == call["id"]]
        wall = call["end"] - call["start"]
        sums.append(sum(subs))
        maxes.append(max(subs))
        imbalances.append(max(subs) / (sum(subs) / len(subs)))
        efficiencies.append(sum(subs) / (call["counts"]["workers"] * wall))
    out["partition.subdomain_s_sum"] = _mean(sums)
    out["partition.subdomain_s_max"] = _mean(maxes)
    out["partition.imbalance"] = _mean(imbalances)
    out["partition.parallel_efficiency"] = _mean(efficiencies)

    solves = {s["id"] for s in by_name.get("darcy.solve_darcy", [])}
    selfs = self_times(run)
    out["darcy.coefficient_s"] = per * sum(s["end"] - s["start"] for s in run if s["parent"] in solves)
    out["darcy.solve_s"] = per * sum(selfs[i] for i in solves)
    out["trace.spans"] = per * len(run)
    return out
