"""The benchmark's workloads: set-up, timed part and checks.

Each workload drives fieldfit's public API the way a user does and splits
its work into operations: one subdomain fit or uniform fit, one ``load``,
one ``evaluate`` call or one ``solve_darcy`` call.  The timed part runs the
operations of one round; ``verify`` then checks every output against
:mod:`reference` or against properties the method must have, outside the
clock.  An operation that raises or fails its check counts as failed.

Every workload runs the whole pipeline (fit, evaluate, Darcy) so that each
end-to-end metric reads a real value on each of them; the README gives the
make-up of each.  The seed picks the evaluation and probe points only; the
fields come from fieldfit's own deterministic generators.
"""

from __future__ import annotations

import time

import numpy as np

from fieldfit import adaptive, darcy, elastic_net, fields, partition, rbf

import reference

WORKERS = 2
BOX_ELASTIC = dict(lam1=4.59e-4, lam2=1e-4, tol=1e-6, max_iters=4000)
STEP_LAMBDAS = dict(lam1=4.59e-4, lam2=4.64e-6)
IN_CELL_OFFSETS = ((0.0, 0.0), (-0.25, 0.0), (0.25, 0.0))
LEFT_RIGHT = {"left": 1.0, "right": 0.0}

# a P1 solution with a left-right drive lies in [0, 1] up to the solver's
# residual, and its two boundary reactions cancel
PRESSURE_SLACK = 1e-9
REACTION_RTOL = 1e-6
# criterion 7 of the acceptance suite: mesh-refinement slope
SLOPE_RANGE = (0.7, 1.3)


class Round:
    """Operations, timing buckets and cross-operation checks of one round."""

    def __init__(self, traced=False):
        self.traced = traced
        self.completed = False
        self.wall = 0.0
        self.ops: dict[str, str | None] = {}  # op -> None if it passed, else why not
        self.seconds: dict[str, float] = {}
        self.problems: list[str] = []
        self.values: dict[str, float] = {}

    def run(self, ops, bucket, fn, *args, **kwargs):
        """Call ``fn`` as the operation(s) ``ops``, adding its time to ``bucket``."""
        names = [ops] if isinstance(ops, str) else list(ops)
        for name in names:
            self.ops[name] = "raised"
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        elapsed = time.perf_counter() - t0
        for name in names:
            self.ops[name] = None
        if bucket:
            self.seconds[bucket] = self.seconds.get(bucket, 0.0) + elapsed
        return out

    def check(self, op, ok, why):
        if not ok and self.ops.get(op) is None:
            self.ops[op] = why

    def require(self, ok, why):
        if not ok:
            self.problems.append(why)


# ---------------------------------------------------------------------------
# checks shared by the workloads


def owners(points, boxes):
    """Index of the half-open box holding each point (-1 if none)."""
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    out = np.full(pts.shape[0], -1)
    for i, box in enumerate(boxes):
        inside = np.ones(pts.shape[0], dtype=bool)
        for k, (lo, hi, open_hi) in enumerate(zip(box.lo, box.hi, box.open_hi)):
            inside &= (pts[:, k] >= lo) & ((pts[:, k] < hi) if open_hi else (pts[:, k] <= hi))
        out[inside & (out < 0)] = i
    return out


def reference_values(surrogate, points):
    """The surrogate at ``points`` by direct summation, subdomain by subdomain."""
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    own = owners(pts, surrogate.partition.boxes)
    out = np.full(pts.shape[0], np.nan)
    for i, loc in enumerate(surrogate.locals):
        sel = own == i
        d = loc.dictionary
        blend = reference.shepard_direct(pts[sel], d.centers, d.widths, loc.beta)
        out[sel] = np.exp(blend) if loc.log_transform else blend
    return out


def check_evaluation(rnd, op, surrogate, points, values):
    ref = reference_values(surrogate, points)
    worst = float(np.max(np.abs(values - ref) / np.abs(ref)))
    rnd.check(op, worst <= reference.EVAL_RTOL, f"differs from direct summation by {worst:.2e}")


def check_shepard_bounds(rnd, ops, surrogate, points, values):
    """exp(min beta) <= K* <= exp(max beta) on each subdomain (no exp without log)."""
    own = owners(points, surrogate.partition.boxes)
    for i, (op, loc) in enumerate(zip(ops, surrogate.locals)):
        lo, hi = loc.beta.min(), loc.beta.max()
        if loc.log_transform:
            lo, hi = np.exp(lo), np.exp(hi)
        v = values[own == i]
        ok = bool(np.all(v >= lo * (1 - 1e-12)) and np.all(v <= hi * (1 + 1e-12)))
        rnd.check(op, ok, f"values outside the coefficient bounds [{lo:.6g}, {hi:.6g}]")


def subdomain_cells(data, box):
    """(centroids, values) of the cells whose centroid lies in ``box``."""
    sel = owners(data.mesh.centroids, [box]) == 0
    return data.mesh.centroids[sel], data.values[sel]


def check_kkt(rnd, op, centroids, y, local, lam1, lam2):
    d = local.dictionary
    W = reference.shepard_design(centroids, d.centers, d.widths)
    viol = reference.kkt_violation(W, y, local.beta, lam1, lam2)
    rnd.check(op, viol <= reference.KKT_TOL, f"KKT violation {viol:.2e}")


def field_rel_l2(data, surrogate):
    """Relative L2 misfit against the cell data (midpoint rule, equal cells)."""
    approx = reference_values(surrogate, data.mesh.centroids)
    return float(np.sqrt(np.sum((approx - data.values) ** 2) / np.sum(data.values**2)))


def check_pressure(rnd, op, solution):
    p = solution.values[np.isfinite(solution.values)]
    ok = p.min() >= -PRESSURE_SLACK and p.max() <= 1 + PRESSURE_SLACK
    rnd.check(op, ok, f"pressure range [{p.min():.3g}, {p.max():.3g}] leaves [0, 1]")
    left = solution.boundary_reaction("left")
    right = solution.boundary_reaction("right")
    rnd.check(
        op, abs(left + right) <= REACTION_RTOL * abs(left),
        f"boundary reactions {left:.6g} and {right:.6g} do not cancel",
    )


def solve(rnd, op, bucket, mesh, coefficient):
    problem = darcy.DarcyProblem(mesh=mesh, coefficient=coefficient, dirichlet=LEFT_RIGHT)
    return rnd.run(op, bucket, darcy.solve_darcy, problem)


def uniform_points(rng, n, bounds):
    return np.column_stack([rng.uniform(lo, hi, n) for lo, hi in bounds])


# ---------------------------------------------------------------------------
# workloads


class BoxAdaptive:
    """The parallel adaptive experiment in the shape of the SPE10 preset."""

    name = "box-adaptive"
    eval_points = 100_000
    darcy_n = 128  # surrogate against staircase, direct solve
    transfer_n = 192  # surrogate alone on a finer mesh, CG solve
    ops = [f"fit[{i}]" for i in range(4)] + [
        "evaluate", f"darcy[staircase-{darcy_n}]", f"darcy[surrogate-{darcy_n}]",
        f"darcy[surrogate-{transfer_n}]",
    ]

    def inputs(self, rng):
        return {"points": uniform_points(rng, self.eval_points, ((0, 1), (0, 1)))}

    def setup(self):
        data = fields.box_field_2d()
        part = partition.make_partition(data.mesh, 2, 2)
        cfg = adaptive.AdaptiveConfig(
            k_top=51, m_q=3, eta=0.5, m_max=306, max_rounds=3,
            elastic=elastic_net.ElasticNetConfig(**BOX_ELASTIC), offsets=IN_CELL_OFFSETS,
        )
        spec = partition.DictionarySpec(sigma=0.031)
        return {"data": data, "part": part, "cfg": cfg, "spec": spec}, {}

    def verify_setup(self, ctx):
        return []

    def timed(self, ctx, inputs, rnd):
        data = ctx["data"]
        sur, report = rnd.run(
            self.ops[:4], "fit", partition.fit_parallel,
            data, ctx["part"], ctx["cfg"], ctx["spec"], workers=WORKERS,
        )
        values = rnd.run("evaluate", "eval", sur.evaluate, inputs["points"])
        rnd.values["points"] = len(inputs["points"])
        n, fine = self.darcy_n, self.transfer_n
        tri = darcy.triangulate(n, n, data.mesh.bounds)
        p_ref = solve(rnd, f"darcy[staircase-{n}]", None, tri, data.piecewise_eval)
        p_sur = solve(rnd, f"darcy[surrogate-{n}]", "darcy", tri, sur.evaluate)
        error = darcy.pressure_rel_error(p_ref, p_sur)
        tri = darcy.triangulate(fine, fine, data.mesh.bounds)
        p_fine = solve(rnd, f"darcy[surrogate-{fine}]", "darcy", tri, sur.evaluate)
        solutions = dict(zip(self.ops[5:], (p_ref, p_sur, p_fine)))
        return {"surrogate": sur, "report": report, "values": values,
                "solutions": solutions, "pressure_error": error}

    def verify(self, ctx, inputs, out, rnd):
        data, cfg, sur = ctx["data"], ctx["cfg"], out["surrogate"]
        en = cfg.elastic
        num0 = den = 0.0
        for i, box in enumerate(ctx["part"].boxes):
            op, reports = self.ops[i], out["report"].rounds[i]
            centroids, values = subdomain_cells(data, box)
            # one initial centre per cell, then k_top * m_q more per round
            counts = [r.centers for r in reports]
            expected = [len(values) + r * cfg.k_top * cfg.m_q for r in range(cfg.max_rounds)]
            rnd.check(op, counts == expected, f"centre counts {counts}, expected {expected}")
            check_kkt(rnd, op, centroids, np.log(values), sur.locals[i], en.lam1, en.lam2)
            num0 += reports[0].abs_l2**2
            den += np.prod(data.mesh.cell_size) * float(np.sum(values**2))
        check_shepard_bounds(rnd, self.ops[:4], sur, inputs["points"], out["values"])
        check_evaluation(rnd, "evaluate", sur, inputs["points"], out["values"])
        for op, solution in out["solutions"].items():
            check_pressure(rnd, op, solution)
        final = field_rel_l2(data, sur)
        first = float(np.sqrt(num0 / den))
        rnd.require(final < first, f"final field error {final:.3e} not below round 0's {first:.3e}")
        rnd.require(out["pressure_error"] < 0.5, f"pressure error {out['pressure_error']:.3e}")
        rnd.values.update(field_rel_l2=final, pressure_rel_l2=out["pressure_error"])


class Step1D:
    """The 1D step experiment of acceptance criterion 4, then evaluation and Darcy."""

    name = "step1d"
    uniform_cells = (2, 4, 8, 16)
    eval_calls = 4
    eval_points = 100_000
    # 1D meshes stay on the direct side of the solver switch (see README)
    darcy_n = (1 << 12, 1 << 13, 1 << 14)
    ops = ([f"uniform[{m}]" for m in (2, 4, 8, 16)] + ["adaptive"]
           + [f"evaluate[{k}]" for k in range(4)] + [f"darcy[staircase-{1 << 14}]"]
           + [f"darcy[surrogate-{n}]" for n in darcy_n])

    def inputs(self, rng):
        return {"points": [rng.uniform(0.0, 0.03125, (self.eval_points, 1))
                           for _ in range(self.eval_calls)]}

    def setup(self):
        uniform = {m: fields.step_field_1d(m).whole() for m in self.uniform_cells}
        data = fields.step_field_1d(16)
        part = partition.make_partition(data.mesh, 1)
        cfg = adaptive.AdaptiveConfig(
            k_top=1, m_max=6, eta=0.5, m_q=3, max_rounds=10,
            elastic=elastic_net.ElasticNetConfig(**STEP_LAMBDAS),
        )
        return {"uniform": uniform, "data": data, "part": part, "cfg": cfg,
                "spec": partition.DictionarySpec(sigma=0.0019)}, {}

    def verify_setup(self, ctx):
        return []

    @staticmethod
    def _uniform_fit(sub):
        d = rbf.centroid_dictionary(sub.centroids, 0.0019)
        W = rbf.shepard_features(sub.centroids, d)
        res = elastic_net.fit(W, sub.values, elastic_net.ElasticNetConfig(**STEP_LAMBDAS))
        return rbf.LocalSurrogate(dictionary=d, beta=res.beta, log_transform=False)

    def timed(self, ctx, inputs, rnd):
        uniform = {m: rnd.run(f"uniform[{m}]", "fit", self._uniform_fit, sub)
                   for m, sub in ctx["uniform"].items()}
        data = ctx["data"]
        sur, report = rnd.run(
            "adaptive", "fit", partition.fit_parallel, data, ctx["part"], ctx["cfg"], ctx["spec"]
        )
        values = [rnd.run(f"evaluate[{k}]", "eval", sur.evaluate, pts)
                  for k, pts in enumerate(inputs["points"])]
        rnd.values["points"] = sum(len(p) for p in inputs["points"])
        meshes = {n: darcy.line_mesh(n, data.mesh.bounds[0]) for n in self.darcy_n}
        finest = self.darcy_n[-1]
        solutions = {f"darcy[staircase-{finest}]": solve(
            rnd, f"darcy[staircase-{finest}]", None, meshes[finest], data.piecewise_eval)}
        for n, mesh in meshes.items():
            op = f"darcy[surrogate-{n}]"
            solutions[op] = solve(rnd, op, "darcy", mesh, sur.evaluate)
        error = darcy.pressure_rel_error(
            solutions[f"darcy[staircase-{finest}]"], solutions[f"darcy[surrogate-{finest}]"]
        )
        return {"uniform": uniform, "surrogate": sur, "report": report, "values": values,
                "solutions": solutions, "pressure_error": error}

    def verify(self, ctx, inputs, out, rnd):
        lam1, lam2 = STEP_LAMBDAS["lam1"], STEP_LAMBDAS["lam2"]
        uniform_errors = []
        for m, local in out["uniform"].items():
            sub = ctx["uniform"][m]
            check_kkt(rnd, f"uniform[{m}]", sub.centroids, sub.values, local, lam1, lam2)
            d = local.dictionary
            approx = reference.shepard_direct(sub.centroids, d.centers, d.widths, local.beta)
            uniform_errors.append(
                float(np.sqrt(np.sum((approx - sub.values) ** 2) / np.sum(sub.values**2)))
            )

        data, sur = ctx["data"], out["surrogate"]
        rel = [r.rel_l2 for r in out["report"].rounds[0]]
        rnd.check("adaptive", all(b < a for a, b in zip(rel, rel[1:])),
                  f"rel_L2 not strictly decreasing: {rel}")
        added = out["report"].rounds[0][-1].centers - out["report"].rounds[0][0].centers
        rnd.check("adaptive", added <= ctx["cfg"].m_max, f"{added} bases added")
        check_kkt(rnd, "adaptive", data.mesh.centroids, np.log(data.values), sur.locals[0], lam1, lam2)
        final = field_rel_l2(data, sur)
        rnd.check("adaptive", abs(final - rel[-1]) <= 1e-8 * final,
                  f"reported rel_L2 {rel[-1]:.6e}, recomputed {final:.6e}")
        for k, (pts, values) in enumerate(zip(inputs["points"], out["values"])):
            check_shepard_bounds(rnd, ["adaptive"], sur, pts, values)
            check_evaluation(rnd, f"evaluate[{k}]", sur, pts, values)
        for op, solution in out["solutions"].items():
            check_pressure(rnd, op, solution)
        best = min(uniform_errors)
        rnd.require(final < best, f"adaptive error {final:.3e} not below best uniform {best:.3e}")
        rnd.require(out["pressure_error"] < 0.5, f"pressure error {out['pressure_error']:.3e}")
        rnd.values.update(field_rel_l2=final, pressure_rel_l2=out["pressure_error"])


class MeshTransfer:
    """A saved 2x2 surrogate, loaded, evaluated and used on other meshes."""

    name = "mesh-transfer"
    eval_points = 100_000
    probes = 1000
    coarse = (16, 32, 64)  # slope against the staircase solve at 64
    fine = (128, 256)  # either side of the direct/CG switch, against 256
    ops = (["load", "evaluate", "darcy[staircase-64]", "darcy[staircase-256]"]
           + [f"darcy[surrogate-{n}]" for n in (16, 32, 64, 128, 256)])

    def __init__(self, out_dir):
        self.path = out_dir / "mesh-transfer-surrogate.txt"

    def inputs(self, rng):
        return {"points": uniform_points(rng, self.eval_points, ((0, 1), (0, 1))),
                "probes": uniform_points(rng, self.probes, ((0, 1), (0, 1)))}

    def setup(self):
        data = fields.box_field_2d()
        part = partition.make_partition(data.mesh, 2, 2)
        cfg = adaptive.AdaptiveConfig(m_max=0, elastic=elastic_net.ElasticNetConfig(**BOX_ELASTIC))
        t0 = time.perf_counter()
        sur, _ = partition.fit_parallel(
            data, part, cfg, partition.DictionarySpec(sigma=0.031), workers=WORKERS
        )
        t1 = time.perf_counter()
        partition.save(sur, str(self.path))
        t2 = time.perf_counter()
        return {"data": data, "saved": sur, "cfg": cfg}, {"fit": t1 - t0, "save": t2 - t1}

    def verify_setup(self, ctx):
        rnd = Round()
        en = ctx["cfg"].elastic
        for i, box in enumerate(ctx["saved"].partition.boxes):
            rnd.ops[f"fit[{i}]"] = None
            centroids, values = subdomain_cells(ctx["data"], box)
            check_kkt(rnd, f"fit[{i}]", centroids, np.log(values), ctx["saved"].locals[i],
                      en.lam1, en.lam2)
        return [f"set-up {op}: {why}" for op, why in rnd.ops.items() if why]

    def timed(self, ctx, inputs, rnd):
        data = ctx["data"]
        sur = rnd.run("load", None, partition.load, str(self.path))
        values = rnd.run("evaluate", "eval", sur.evaluate, inputs["points"])
        rnd.values["points"] = len(inputs["points"])
        meshes = {n: darcy.triangulate(n, n, data.mesh.bounds) for n in (*self.coarse, *self.fine)}
        refs = {n: solve(rnd, f"darcy[staircase-{n}]", None, meshes[n], data.piecewise_eval)
                for n in (self.coarse[-1], self.fine[-1])}
        sols = {n: solve(rnd, f"darcy[surrogate-{n}]", "darcy", meshes[n], sur.evaluate)
                for n in meshes}
        errors = {n: darcy.pressure_rel_error(refs[self.coarse[-1]], sols[n]) for n in self.coarse}
        errors.update({n: darcy.pressure_rel_error(refs[self.fine[-1]], sols[n]) for n in self.fine})
        solutions = {f"darcy[staircase-{n}]": s for n, s in refs.items()}
        solutions.update({f"darcy[surrogate-{n}]": s for n, s in sols.items()})
        return {"surrogate": sur, "values": values, "solutions": solutions, "errors": errors}

    def verify(self, ctx, inputs, out, rnd):
        sur = out["surrogate"]
        same = np.array_equal(ctx["saved"].evaluate(inputs["probes"]), sur.evaluate(inputs["probes"]))
        rnd.check("load", same, "loaded surrogate differs from the saved one at the probes")
        check_evaluation(rnd, "evaluate", sur, inputs["points"], out["values"])
        for op, solution in out["solutions"].items():
            check_pressure(rnd, op, solution)
        errors = out["errors"]
        h = [1.0 / n for n in self.coarse]
        slope = float(np.polyfit(np.log(h), np.log([errors[n] for n in self.coarse]), 1)[0])
        lo, hi = SLOPE_RANGE
        rnd.require(lo <= slope <= hi, f"refinement slope {slope:.3f} outside [{lo}, {hi}]")
        finest = errors[self.fine[-1]]
        rnd.require(finest < 0.5, f"pressure error {finest:.3e} on the finest mesh")
        rnd.values.update(field_rel_l2=field_rel_l2(ctx["data"], sur), pressure_rel_l2=finest,
                          slope=slope)


def make(name, out_dir):
    table = {"box-adaptive": BoxAdaptive, "step1d": Step1D, "mesh-transfer": MeshTransfer}
    cls = table[name]
    return cls(out_dir) if cls is MeshTransfer else cls()

