"""Command-line interface wiring the pipeline into reproducible runs.

Commands: ``fit`` (adaptive surrogate construction), ``eval`` (sample a
saved surrogate on a grid), ``darcy`` (pressure solves and error reports),
``verify-theory`` (step-interface error law), and ``preset`` (canned
experiments).  Every CSV and report starts with a provenance line echoing
the exact configuration; timing lives in dedicated columns so reruns are
byte-identical elsewhere.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import io as fio
from .adaptive import REPORT_CSV_COLUMNS, AdaptiveConfig, report_csv_row
from .darcy import (
    DarcyProblem,
    pressure_rel_error,
    solve_darcy,
    triangulate,
    write_pressure_text,
)
from .elastic_net import ElasticNetConfig
from .errors import ConfigError, DataError, FieldfitError
from .fields import box_field_2d, step_field_1d
from .geometry import build_mesh
from .partition import DictionarySpec, fit_parallel, load, make_partition, save

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# darcy --preset: the Dirichlet values on the left and right faces
DARCY_PRESETS = {
    "left-right": {"left": 1.0, "right": 0.0},
    "spe10": {"left": 100.0, "right": 0.0},
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (FieldfitError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="fieldfit", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(required=True)

    f = sub.add_parser("fit", help="fit a surrogate to a field file")
    f.add_argument("--field", required=True, help="input field file")
    f.add_argument("--out", required=True, help="output surrogate file")
    f.add_argument("--reports", help="per-round report CSV")
    f.add_argument("--px", type=int, default=1)
    f.add_argument("--py", type=int, default=1)
    f.add_argument("--sigma", type=float, required=True, help="initial kernel width")
    f.add_argument("--g", type=int, help="lattice resolution (default: one basis per cell)")
    f.add_argument("--l1", default="0", help="l1 penalty, scalar or comma list per subdomain")
    f.add_argument("--l2", default="0", help="l2 penalty, scalar or comma list per subdomain")
    f.add_argument("--ktop", type=int, default=1, help="cells marked per round")
    f.add_argument("--eta", type=float, default=0.5, help="width shrink factor")
    f.add_argument("--mmax", type=int, default=0, help="maximum added bases")
    f.add_argument("--eps-tol", type=float, default=0.0, help="residual stopping tolerance")
    f.add_argument("--max-rounds", type=int, default=50)
    f.add_argument("--offsets", help="new-center offsets in cell units, e.g. '0,0;-0.25,0;0.25,0'")
    f.add_argument(
        "--tol", type=float, default=1e-10,
        help="relative duality gap below which the Elastic Net solver tries its active-set finish"
        " after each Newton step",
    )
    f.add_argument(
        "--max-iters", type=int, default=100_000,
        help="cap on Elastic Net Newton steps per fit",
    )
    f.add_argument("--workers", type=int, default=1)
    f.set_defaults(func=cmd_fit)

    e = sub.add_parser("eval", help="evaluate a saved surrogate on a grid")
    e.add_argument("--surrogate", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--nx", type=int, required=True)
    e.add_argument("--ny", type=int)
    e.add_argument("--bounds", help="x0,x1[,y0,y1]; default: surrogate bounds")
    e.set_defaults(func=cmd_eval)

    d = sub.add_parser("darcy", help="solve the pressure equation")
    d.add_argument("--field", help="coefficient from a field file (staircase)")
    d.add_argument("--surrogate", help="coefficient from a saved surrogate")
    d.add_argument("--preset", default="left-right", choices=tuple(DARCY_PRESETS))
    d.add_argument("--nx", type=int)
    d.add_argument("--ny", type=int)
    d.add_argument("--out", help="pressure CSV")
    d.add_argument("--out-text", help="nodal pressure in the field-file grammar")
    d.add_argument("--report", help="error-report text file")
    d.add_argument("--sweep", help="comma list of mesh sizes for a convergence table")
    d.set_defaults(func=cmd_darcy)

    t = sub.add_parser("verify-theory", help="step-interface L1 error law check")
    t.add_argument("--c-values", default="0.5,1,2")
    t.add_argument("--sigma-values", default="0.05,0.1,0.2")
    t.add_argument("--b", type=float, default=0.0)
    t.add_argument("--out", required=True)
    t.set_defaults(func=cmd_verify_theory)

    r = sub.add_parser("preset", help="run a canned experiment")
    r.add_argument("name", choices=tuple(PRESETS))
    r.add_argument("--outdir", required=True)
    r.add_argument("--spe10-file", help="path to spe_perm.dat (spe10 preset)")
    r.add_argument("--layer", type=int, default=0)
    r.add_argument("--workers", type=int, default=1)
    r.set_defaults(func=cmd_preset)
    return p


def _provenance(args) -> str:
    items = sorted(
        (k.replace("_", "-"), v)
        for k, v in vars(args).items()
        if k != "func" and v is not None
    )
    return "fieldfit " + " ".join(f"--{k}={v}" for k, v in items)


def _parse_list(text: str, name: str, kind=float) -> list:
    """The comma-separated numbers of an option; ConfigError names the option."""
    try:
        return [kind(t) for t in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name}={text!r}: {exc}") from exc


def _parse_lams(text: str, n: int, name: str) -> list[float]:
    vals = _parse_list(text, name)
    if len(vals) == 1:
        return vals * n
    if len(vals) != n:
        raise ConfigError(f"{name} has {len(vals)} entries for {n} subdomains")
    return vals


def _parse_offsets(text: str | None, dim: int):
    if text is None:
        return None
    offs = tuple(tuple(_parse_list(part, "--offsets")) for part in text.split(";"))
    if any(len(o) != dim for o in offs):
        raise ConfigError(f"offsets must have {dim} coordinates each")
    return offs


def _check_workers(args) -> None:
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")


def _fit_setup(args, mesh):
    """Partition, dictionary spec and per-subdomain configs for ``fit``.

    Their constructors validate every option; a ``ValueError`` from any of
    them becomes a :class:`ConfigError`.
    """
    _check_workers(args)
    try:
        part = make_partition(mesh, args.px, args.py)
        n_sub = part.n_subdomains
        lam1 = _parse_lams(args.l1, n_sub, "--l1")
        lam2 = _parse_lams(args.l2, n_sub, "--l2")
        offsets = _parse_offsets(args.offsets, mesh.dim)
        spec = DictionarySpec(sigma=args.sigma, lattice=args.g)
        configs = [
            AdaptiveConfig(
                k_top=args.ktop,
                m_max=args.mmax,
                eps_tol=args.eps_tol,
                eta=args.eta,
                m_q=AdaptiveConfig.m_q if offsets is None else len(offsets),
                max_rounds=args.max_rounds,
                elastic=ElasticNetConfig(
                    lam1=lam1[i], lam2=lam2[i], tol=args.tol, max_iters=args.max_iters
                ),
                offsets=offsets,
            )
            for i in range(n_sub)
        ]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return part, spec, configs


def cmd_fit(args) -> int:
    fio.check_writable(args.out, args.reports)
    data = fio.read_field(args.field)
    part, spec, configs = _fit_setup(args, data.mesh)
    surrogate, report = fit_parallel(
        data, part, configs, spec, workers=args.workers,
        metadata={"config": _provenance(args)},
    )
    save(surrogate, args.out)
    if args.reports:
        lines = [",".join(("subdomain",) + REPORT_CSV_COLUMNS)]
        lines.extend(
            f"{i},{report_csv_row(r)}" for i, rounds in enumerate(report.rounds) for r in rounds
        )
        fio.write_text(args.reports, lines, _provenance(args))
    unconverged = [i for i, rounds in enumerate(report.rounds) if not rounds[-1].converged]
    if unconverged:
        names = ", ".join(map(str, unconverged))
        # pure lasso can stall in its proximal-point loop, where a small lam2 > 0 certifies
        lasso = any(configs[i].elastic.lam2 == 0 < configs[i].elastic.lam1 for i in unconverged)
        print(
            f"warning: the final Elastic Net fit of subdomain(s) {names} is not certified optimal"
            + ("; a small positive --l2, such as 1e-8, gives a certified fit" if lasso else ""),
            file=sys.stderr,
        )
    # the final rounds' misfits, read off each fit's own expansion at its cells
    num = sum(rounds[-1].abs_l2**2 for rounds in report.rounds)
    err = float(np.sqrt(num / (data.mesh.cell_measure * np.sum(data.values**2))))
    print(
        f"fit: {part.n_subdomains} subdomain(s), rel_l2={err:.6e}, "
        f"wall={report.total_seconds:.2f}s"
    )
    return 0


def cmd_eval(args) -> int:
    fio.check_writable(args.out)
    surrogate = load(args.surrogate)
    mesh = surrogate.partition.mesh
    if args.bounds is not None:
        bounds = _parse_list(args.bounds, "--bounds")
    else:
        bounds = [v for b in mesh.bounds for v in b]
    if mesh.dim == 2 and args.ny is None:
        raise ConfigError("--ny is required for 2-D surrogates")
    if mesh.dim == 1 and args.ny is not None:
        raise ConfigError(f"--ny={args.ny} is given for a 1-D surrogate, which has no y-axis")
    try:
        pts = build_mesh(mesh.dim, (args.nx, args.ny)[: mesh.dim], bounds).centroids
    except ValueError as exc:
        raise ConfigError(f"bad evaluation grid: {exc}") from exc
    try:
        values = surrogate.evaluate(pts)
    except ValueError as exc:
        raise DataError(f"evaluation failed: {exc}") from exc
    fio.write_grid_csv(pts, values, args.out, provenance=_provenance(args))
    print(f"eval: wrote {pts.shape[0]} rows to {args.out}")
    return 0


def cmd_darcy(args) -> int:
    if not args.field and not args.surrogate:
        raise ConfigError("darcy requires --field and/or --surrogate")
    fio.check_writable(args.out, args.out_text, args.report)
    data = fio.read_field(args.field) if args.field else None
    surrogate = load(args.surrogate) if args.surrogate else None
    mesh0 = data.mesh if data is not None else surrogate.partition.mesh
    if mesh0.dim != 2:
        raise ConfigError("the darcy command supports 2-D fields only")
    if data is not None and surrogate is not None:
        dom, sur_dom = data.mesh.bounds, surrogate.partition.mesh.bounds
        if len(dom) != len(sur_dom) or any(a < c or b > d for (a, b), (c, d) in zip(dom, sur_dom)):
            raise DataError(f"the field's domain {dom} is not inside the surrogate's {sur_dom}")
    nx = mesh0.counts[0] if args.nx is None else args.nx
    ny = mesh0.counts[1] if args.ny is None else args.ny
    sizes = _parse_list(args.sweep, "--sweep", int) if args.sweep else []
    if min(nx, ny, *sizes) < 1:
        raise ConfigError(f"mesh sizes must be >= 1: --nx={nx} --ny={ny} --sweep={sizes}")
    if sizes and (args.out or args.out_text):
        raise ConfigError("--out and --out-text write one solution, and a --sweep has none")
    bounds = mesh0.bounds
    dirichlet = DARCY_PRESETS[args.preset]

    def run(coeff, n_x, n_y):
        tri = triangulate(n_x, n_y, bounds)
        problem = DarcyProblem(mesh=tri, coefficient=coeff, dirichlet=dirichlet)
        sol = solve_darcy(problem)
        d = sol.diagnostics
        solves.append(
            f"# solve nx={n_x} ny={n_y} method={d['method']} iterations={d['iterations']} "
            f"levels={d['levels']} residual={d['residual']:.3e}"
        )
        return sol

    lines = []
    solves = []
    solution = None
    if sizes:
        coeff = surrogate.evaluate if surrogate else data.piecewise_eval
        ref_coeff = data.piecewise_eval if data is not None else coeff
        aspect = ny / nx
        fine = run(ref_coeff, max(sizes), max(1, round(max(sizes) * aspect)))
        lines.append("nx,h,rel_pressure_error")
        # log e needs e > 0; against the staircase reference the finest row is 0
        positive = []
        for n in sizes:
            sol = run(coeff, n, max(1, round(n * aspect)))
            err = pressure_rel_error(fine, sol)
            if err > 0:
                positive.append((n, err))
            lines.append(f"{n},{(bounds[0][1] - bounds[0][0]) / n:.17g},{err:.17g}")
        if len(positive) >= 2:
            n_pos, e_pos = zip(*positive)
            slope = np.polyfit(np.log([1.0 / n for n in n_pos]), np.log(e_pos), 1)[0]
            lines.append(f"# slope={slope:.4f}")
    elif data is not None and surrogate is not None:
        p_true = run(data.piecewise_eval, nx, ny)
        p_star = run(surrogate.evaluate, nx, ny)
        err = pressure_rel_error(p_true, p_star)
        lines.append(f"rel_pressure_error,{err:.17g}")
        solution = p_star
    else:
        coeff = surrogate.evaluate if surrogate else data.piecewise_eval
        solution = run(coeff, nx, ny)

    if solution is not None and args.out:
        active = np.isfinite(solution.values)
        fio.write_grid_csv(
            solution.mesh.nodes[active], solution.values[active], args.out,
            provenance=_provenance(args),
        )
    if solution is not None and args.out_text:
        write_pressure_text(solution, args.out_text)
    if args.report:
        fio.write_text(args.report, lines + solves, _provenance(args))
    for line in lines:
        print(line)
    return 0


def cmd_verify_theory(args) -> int:
    from .step_approx import error_grid

    fio.check_writable(args.out)
    cs = _parse_list(args.c_values, "--c-values")
    sigmas = _parse_list(args.sigma_values, "--sigma-values")
    try:
        rows = error_grid(cs, sigmas, b=args.b)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    lines = ["c,sigma,b,numeric,analytic,rel_diff"]
    lines.extend(",".join(f"{v:.17g}" for v in row) for row in rows)
    fio.write_text(args.out, lines, _provenance(args))
    worst = max(r[-1] for r in rows)
    print(f"verify-theory: {len(rows)} cases, worst rel_diff={worst:.3e}")
    return 0


# experiment presets: (field, l2 penalty, fit options) of the corresponding
# test runs, each fed to one ``fit`` call; spe10 reads its field from
# --spe10-file and chains ``darcy`` after the fit
PRESETS = {
    "step1d": (
        lambda: step_field_1d(16), "4.64e-6",
        ["--sigma", "0.0019", "--ktop", "1", "--eta", "0.5",
         "--mmax", "6", "--max-rounds", "10"],
    ),
    "case-uniform": (
        box_field_2d, "1e-4", ["--sigma", "0.031", "--tol", "1e-6", "--max-iters", "4000"],
    ),
    "case-adaptive": (
        box_field_2d, "1e-4",
        ["--sigma", "0.031", "--ktop", "204", "--eta", "0.5",
         "--mmax", "1836", "--max-rounds", "4", "--offsets", "0,0;-0.25,0;0.25,0",
         "--tol", "1e-6", "--max-iters", "4000"],
    ),
    "case-parallel": (
        box_field_2d, "1e-4",
        ["--sigma", "0.031", "--px", "2", "--py", "2", "--tol", "1e-6", "--max-iters", "4000"],
    ),
    "spe10": (
        None, "4.64e-6",
        ["--sigma", "0.00159", "--px", "2", "--py", "2", "--ktop", "660",
         "--mmax", "3960", "--max-rounds", "3", "--offsets", "0,0;-0.25,0;0.25,0",
         "--tol", "1e-6", "--max-iters", "2000"],
    ),
}


def cmd_preset(args) -> int:
    import pathlib

    _check_workers(args)
    outdir = pathlib.Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {outdir}: {exc}") from exc
    field, lam2, options = PRESETS[args.name]
    stem = args.name.replace("-", "_")
    if args.name == "spe10":
        if not args.spe10_file:
            raise ConfigError("the spe10 preset requires --spe10-file")
        data = fio.read_spe10(args.spe10_file, args.layer)
        field_path = outdir / f"spe10_layer{args.layer}.txt"
    else:
        data, field_path = field(), outdir / f"{stem}_field.txt"
    fio.write_field(data, field_path)
    surrogate_path = outdir / f"{stem}_surrogate.txt"
    rc = main(
        ["fit", "--field", str(field_path), "--out", str(surrogate_path),
         "--reports", str(outdir / f"{stem}_reports.csv"),
         "--l1", "4.59e-4", "--l2", lam2, "--workers", str(args.workers), *options]
    )
    if rc != 0 or args.name != "spe10":
        return rc
    return main(
        ["darcy", "--field", str(field_path), "--surrogate", str(surrogate_path),
         "--preset", "spe10",
         "--report", str(outdir / "spe10_pressure_report.txt"),
         "--out", str(outdir / "spe10_pressure.csv")]
    )


if __name__ == "__main__":
    sys.exit(main())
