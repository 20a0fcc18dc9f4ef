import warnings
from pathlib import Path

import numpy as np
import pytest

from fieldfit.cli import _build_parser, _provenance, main
from fieldfit.fields import FieldData, box_field_2d
from fieldfit.geometry import build_mesh
from fieldfit.io import write_field
from fieldfit.partition import GlobalSurrogate, load, make_partition, save
from fieldfit.rbf import LocalSurrogate, centroid_dictionary


@pytest.fixture()
def small_field(tmp_path):
    field = box_field_2d(8, 8)
    path = tmp_path / "field.txt"
    write_field(field, path)
    return path


def _fit_args(field_path, out, **over):
    args = {
        "--sigma": "0.13",
        "--l1": "4.59e-4",
        "--l2": "1e-4",
        "--tol": "1e-8",
        "--max-iters": "2000",
    }
    args.update(over)
    argv = ["fit", "--field", str(field_path), "--out", str(out)]
    for k, v in args.items():
        argv.extend([k, str(v)])
    return argv


def test_fit_writes_surrogate_and_reports(tmp_path, small_field, capsys):
    out = tmp_path / "sur.txt"
    reports = tmp_path / "rounds.csv"
    rc = main(_fit_args(small_field, out, **{"--reports": str(reports)}))
    assert rc == 0
    assert out.exists()
    lines = reports.read_text().splitlines()
    assert lines[0].startswith("# fieldfit ")
    assert lines[1] == "subdomain,round,centers,max_RT,rel_L2,objective,seconds"
    surrogate = load(out)
    assert "config" in surrogate.metadata
    assert "field_checksum" in surrogate.metadata


def test_fit_2x2_four_subdomain_reports(tmp_path, small_field):
    reports = tmp_path / "rounds.csv"
    rc = main(
        _fit_args(
            small_field, tmp_path / "sur.txt",
            **{"--px": "2", "--py": "2", "--workers": "4", "--reports": str(reports)},
        )
    )
    assert rc == 0
    rows = reports.read_text().splitlines()[2:]
    assert {int(r.split(",")[0]) for r in rows} == {0, 1, 2, 3}


def test_fit_nondividing_px_is_config_error(tmp_path, small_field):
    rc = main(_fit_args(small_field, tmp_path / "s.txt", **{"--px": "3"}))
    assert rc == 2


@pytest.mark.parametrize(
    "option, value",
    [
        ("--sigma", "0"),
        ("--mmax", "-1"),
        ("--max-rounds", "0"),
        ("--g", "0"),
        ("--tol", "0"),
        ("--l1", "-1"),
        ("--eps-tol", "-1"),
        ("--max-iters", "0"),
        ("--sigma", "nan"),
        ("--sigma", "inf"),
        ("--l1", "nan"),
        ("--l2", "inf"),
        ("--tol", "nan"),
        ("--eps-tol", "nan"),
        ("--eps-tol", "inf"),
        ("--eta", "nan"),
        ("--offsets", "nan,0;0,0;0,0"),
        ("--workers", "0"),
        ("--workers", "-3"),
    ],
)
def test_fit_invalid_option_is_config_error(tmp_path, small_field, option, value):
    rc = main(_fit_args(small_field, tmp_path / "s.txt", **{option: value}))
    assert rc == 2
    assert not (tmp_path / "s.txt").exists()


def test_fit_takes_mq_from_offsets(tmp_path, small_field):
    # two offsets give two new centers per marked cell; there is no --mq
    out = tmp_path / "s.txt"
    rc = main(_fit_args(small_field, out, **{"--mmax": "6", "--offsets": "0,0;0.25,0"}))
    assert rc == 0
    assert len(load(out).locals[0].dictionary) == 64 + 6


def test_uncertified_pure_lasso_warning_names_l2(tmp_path, small_field, capsys):
    rc = main(_fit_args(small_field, tmp_path / "s.txt", **{"--l1": "1e-3", "--l2": "0"}))
    assert rc == 0
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert len(warnings) == 1
    assert "not certified optimal" in warnings[0]
    assert "--l2" in warnings[0]
    rc = main(_fit_args(small_field, tmp_path / "s.txt", **{"--l1": "1e-3", "--l2": "1e-8"}))
    assert rc == 0
    assert "warning" not in capsys.readouterr().err


def test_fit_unconverged_warns_and_succeeds(tmp_path, small_field, capsys):
    out = tmp_path / "s.txt"
    rc = main(_fit_args(small_field, out, **{"--px": "2", "--max-iters": "1"}))
    assert rc == 0 and out.exists()
    warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
    assert len(warnings) == 1
    assert "subdomain(s) 0, 1" in warnings[0]


def test_fit_converged_prints_no_warning(tmp_path, small_field, capsys):
    assert main(_fit_args(small_field, tmp_path / "s.txt")) == 0
    assert "warning" not in capsys.readouterr().err


def test_ill_conditioned_least_squares_fit_prints_no_warning(tmp_path, capsys):
    # plain least squares (the default --l1 0 --l2 0) on designs with
    # condition number 2e10: the min-norm solve is exact to rounding
    field = tmp_path / "box16.txt"
    write_field(box_field_2d(16, 16), field)
    argv = ["fit", "--field", str(field), "--sigma", "0.13", "--px", "2", "--py", "2",
            "--out", str(tmp_path / "s.txt")]
    assert main(argv) == 0
    assert "warning" not in capsys.readouterr().err


def test_fit_prints_the_misfit_of_its_reports(tmp_path, capsys):
    # an unpenalized fit with |beta| up to 2e12, where re-evaluating the
    # surrogate at the cells would differ from its rounds' own expansions
    field = box_field_2d()
    path, reports = tmp_path / "box32.txt", tmp_path / "rounds.csv"
    write_field(field, path)
    argv = ["fit", "--field", str(path), "--sigma", "0.13", "--px", "2", "--py", "2",
            "--out", str(tmp_path / "s.txt"), "--reports", str(reports)]
    assert main(argv) == 0
    last = {}
    for row in reports.read_text().splitlines()[2:]:
        sub, _, _, _, rel = row.split(",")[:5]
        last[int(sub)] = float(rel)
    subs = make_partition(field.mesh, 2, 2).subdomain_fields(field)
    den = [s.cell_measure * np.sum(s.values**2) for s in subs]
    err = np.sqrt(sum(last[i] ** 2 * d for i, d in enumerate(den)) / sum(den))
    assert f"rel_l2={err:.6e}," in capsys.readouterr().out


def test_fit_l1_list_gives_each_subdomain_its_own_lambda(tmp_path, small_field, capsys):
    lams = ["1e-4", "4.59e-4", "1e-3", "3e-3"]

    def fit(out, l1):
        return main(_fit_args(small_field, out, **{"--px": "2", "--py": "2", "--l1": l1}))

    listed = tmp_path / "listed.txt"
    assert fit(listed, ",".join(lams)) == 0
    for i, lam in enumerate(lams):
        alone = tmp_path / f"alone{i}.txt"
        assert fit(alone, lam) == 0
        np.testing.assert_array_equal(load(listed).locals[i].beta, load(alone).locals[i].beta)
    capsys.readouterr()
    three = tmp_path / "three.txt"
    assert fit(three, ",".join(lams[:3])) == 2
    assert "--l1 has 3 entries for 4 subdomains" in capsys.readouterr().err
    assert not three.exists()


def test_fit_missing_field_is_data_error(tmp_path):
    rc = main(_fit_args(tmp_path / "nope.txt", tmp_path / "s.txt"))
    assert rc == 3


def test_fit_deterministic_surrogate_bytes(tmp_path, small_field):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    argv1 = _fit_args(small_field, out1)
    argv2 = _fit_args(small_field, out2)
    assert main(argv1) == 0 and main(argv2) == 0
    a = out1.read_text().replace(str(out1), "OUT")
    b = out2.read_text().replace(str(out2), "OUT")
    assert a == b


def test_fit_workers_do_not_change_output(tmp_path, small_field):
    out1 = tmp_path / "w1.txt"
    out2 = tmp_path / "w2.txt"
    main(_fit_args(small_field, out1, **{"--px": "2", "--py": "2", "--workers": "1"}))
    main(_fit_args(small_field, out2, **{"--px": "2", "--py": "2", "--workers": "2"}))
    a = out1.read_text().replace(str(out1), "OUT").replace("--workers=1", "W")
    b = out2.read_text().replace(str(out2), "OUT").replace("--workers=2", "W")
    assert a == b


def test_eval_two_resolutions_one_surrogate(tmp_path, small_field):
    sur = tmp_path / "sur.txt"
    main(_fit_args(small_field, sur))
    for n in (16, 64):
        out = tmp_path / f"eval{n}.csv"
        rc = main(["eval", "--surrogate", str(sur), "--nx", str(n), "--ny", str(n), "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 2 + n * n


def test_eval_out_of_domain_grid_fails(tmp_path, small_field):
    sur = tmp_path / "sur.txt"
    main(_fit_args(small_field, sur))
    rc = main(
        ["eval", "--surrogate", str(sur), "--nx", "4", "--ny", "4",
         "--bounds", "0,2,0,2", "--out", str(tmp_path / "e.csv")]
    )
    assert rc == 3


def test_eval_malformed_surrogate_is_data_error(tmp_path, small_field):
    sur = tmp_path / "sur.txt"
    main(_fit_args(small_field, sur))
    sur.write_text(sur.read_text().replace("grid 1 1", "grid 3 3", 1))
    rc = main(
        ["eval", "--surrogate", str(sur), "--nx", "4", "--ny", "4", "--out", str(tmp_path / "e.csv")]
    )
    assert rc == 3


def test_eval_surrogate_with_overflowing_generation_is_data_error(tmp_path, small_field):
    sur = tmp_path / "sur.txt"
    assert main(_fit_args(small_field, sur, **{"--px": "2"})) == 0
    lines = sur.read_text().splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("subdomain 0 ")) + 1
    toks = lines[first].split()
    toks[-1] = "100000000000000000000"  # x, y, width, coefficient, generation
    lines[first] = " ".join(toks)
    sur.write_text("\n".join(lines) + "\n")
    rc = main(
        ["eval", "--surrogate", str(sur), "--nx", "4", "--ny", "4", "--out", str(tmp_path / "e.csv")]
    )
    assert rc == 3


def test_eval_constant_surrogate_constant_csv(tmp_path):
    mesh = build_mesh(2, (4, 4), ((0, 1), (0, 1)))
    field_path = tmp_path / "const.txt"
    write_field(FieldData(mesh=mesh, values=np.full(16, 2.0)), field_path)
    sur = tmp_path / "sur.txt"
    main(
        _fit_args(
            field_path, sur,
            **{"--sigma": "0.15", "--l1": "0", "--l2": "0",
               "--tol": "1e-12", "--max-iters": "50000"},
        )
    )
    out = tmp_path / "eval.csv"
    main(["eval", "--surrogate", str(sur), "--nx", "5", "--ny", "5", "--out", str(out)])
    vals = np.loadtxt(out, delimiter=",", skiprows=2)[:, 2]
    np.testing.assert_allclose(vals, 2.0, rtol=1e-6)


def test_eval_ny_for_a_1d_surrogate_is_config_error(tmp_path, capsys):
    mesh = build_mesh(1, 4, (0.0, 1.0))
    local = LocalSurrogate(dictionary=centroid_dictionary(mesh.centroids, 0.2), beta=np.zeros(4))
    sur = tmp_path / "sur1d.txt"
    save(GlobalSurrogate(partition=make_partition(mesh, 1), locals=(local,)), sur)
    out = tmp_path / "eval.csv"
    argv = ["eval", "--surrogate", str(sur), "--nx", "4", "--out", str(out)]
    assert main(argv + ["--ny", "9"]) == 2
    assert "--ny" in capsys.readouterr().err
    assert not out.exists()
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 2 + 4


def test_darcy_constant_field_linear_pressure(tmp_path):
    mesh = build_mesh(2, (8, 8), ((0, 1), (0, 1)))
    field_path = tmp_path / "const.txt"
    write_field(FieldData(mesh=mesh, values=np.ones(64)), field_path)
    out = tmp_path / "pressure.csv"
    rc = main(["darcy", "--field", str(field_path), "--out", str(out)])
    assert rc == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=2)
    np.testing.assert_allclose(rows[:, 2], 1 - rows[:, 0], atol=1e-10)


def test_darcy_field_vs_surrogate_error_report(tmp_path, small_field):
    sur = tmp_path / "sur.txt"
    main(_fit_args(small_field, sur))
    report = tmp_path / "report.txt"
    rc = main(
        ["darcy", "--field", str(small_field), "--surrogate", str(sur), "--report", str(report)]
    )
    assert rc == 0
    line = [l for l in report.read_text().splitlines() if l.startswith("rel_pressure_error")]
    assert len(line) == 1
    assert float(line[0].split(",")[1]) < 0.5


def test_darcy_sweep_reports_slope(tmp_path, small_field):
    sur = tmp_path / "sur.txt"
    main(_fit_args(small_field, sur))
    report = tmp_path / "sweep.txt"
    rc = main(
        ["darcy", "--field", str(small_field), "--surrogate", str(sur),
         "--sweep", "8,16,32", "--report", str(report)]
    )
    assert rc == 0
    text = report.read_text()
    assert "# slope=" in text
    assert len([l for l in text.splitlines() if l and not l.startswith(("#", "nx"))]) == 3
    # one diagnostics line per solve: the staircase reference, then the sweep
    solves = [l.split()[2:] for l in text.splitlines() if l.startswith("# solve ")]
    assert [s[:2] for s in solves] == [
        [f"nx={n}", f"ny={n}"] for n in (32, 8, 16, 32)
    ]
    for s in solves:
        fields = dict(kv.split("=") for kv in s)
        assert (fields["method"], fields["iterations"], fields["levels"]) == ("cg", "1", "1")
        assert float(fields["residual"]) <= 1e-10


def test_field_only_sweep_fits_its_slope_over_the_nonzero_rows(small_field, capsys):
    # the reference is the staircase solve on the finest mesh, so that row is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's warnings would go to stderr
        assert main(["darcy", "--field", str(small_field), "--sweep", "8,16,32"]) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert float(lines[-2].split(",")[2]) == 0.0
    assert lines[-1].startswith("# slope=") and np.isfinite(float(lines[-1][len("# slope="):]))
    assert err == ""


@pytest.mark.parametrize("option", ["--out", "--out-text"])
def test_darcy_sweep_with_one_solution_output_is_config_error(
    tmp_path, small_field, capsys, monkeypatch, option
):
    def no_solve(problem):
        raise AssertionError("a solve ran before the options were checked")

    monkeypatch.setattr("fieldfit.cli.solve_darcy", no_solve)
    out = tmp_path / "p.txt"
    assert main(["darcy", "--field", str(small_field), "--sweep", "2,4", option, str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--out and --out-text" in err and "--sweep" in err
    assert not out.exists()


@pytest.mark.parametrize("extra", [[], ["--sweep", "4,8"]], ids=["plain", "sweep"])
def test_darcy_field_outside_surrogate_domain_is_data_error(tmp_path, small_field, capsys, extra):
    sur = tmp_path / "sur.txt"
    main(_fit_args(small_field, sur))
    wide = tmp_path / "wide.txt"
    write_field(FieldData(mesh=build_mesh(2, (8, 4), ((0, 2), (0, 1))), values=np.ones(32)), wide)
    rc = main(["darcy", "--field", str(wide), "--surrogate", str(sur), *extra])
    assert rc == 3
    err = capsys.readouterr().err
    assert "((0.0, 2.0), (0.0, 1.0))" in err and "((0.0, 1.0), (0.0, 1.0))" in err


def test_darcy_requires_input(tmp_path):
    assert main(["darcy", "--out", str(tmp_path / "p.csv")]) == 2


def test_darcy_pressure_text_export(tmp_path):
    mesh = build_mesh(2, (4, 4), ((0, 1), (0, 1)))
    field_path = tmp_path / "const.txt"
    write_field(FieldData(mesh=mesh, values=np.ones(16)), field_path)
    out = tmp_path / "pressure.txt"
    rc = main(["darcy", "--field", str(field_path), "--out-text", str(out)])
    assert rc == 0
    lines = out.read_text().split()
    assert lines[:3] == ["2", "5", "5"]
    values = np.array(lines[7:], dtype=float)
    assert values.shape == (25,)
    np.testing.assert_allclose(values.reshape(5, 5)[:, 0], 1.0, atol=1e-10)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--nx", "0", "--ny", "4"],
        ["eval", "--nx", "4", "--ny", "4", "--bounds", "0,1"],
        ["eval", "--nx", "4", "--ny", "4", "--bounds", "1,0,0,1"],
        ["eval", "--nx", "4", "--ny", "4", "--bounds", "0,nan,0,1"],
        ["darcy", "--nx", "-3"],
        ["darcy", "--nx", "0"],
        ["darcy", "--sweep", "0,8"],
        ["verify-theory", "--c-values", "-1"],
        ["verify-theory", "--sigma-values", "0"],
        ["verify-theory", "--sigma-values", "nan"],
        ["verify-theory", "--sigma-values", "1e200"],
        ["verify-theory", "--sigma-values", "1e150"],
        ["verify-theory", "--sigma-values", "1e-200"],
    ],
)
def test_bad_grid_or_parameter_is_config_error(tmp_path, small_field, capsys, argv):
    sur = tmp_path / "sur.txt"
    assert main(_fit_args(small_field, sur)) == 0
    capsys.readouterr()
    out = tmp_path / "out.txt"
    if argv[0] in ("eval", "darcy"):
        argv = argv + ["--surrogate", str(sur)]
    rc = main(argv + ["--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["fit", "--field", "{field}", "--sigma", "0.13", "--out", "{dir}/s.txt", "--l1", "1,x"],
         "--l1"),
        (["fit", "--field", "{field}", "--sigma", "0.13", "--out", "{dir}/s.txt", "--l2", "y"],
         "--l2"),
        (["eval", "--surrogate", "{surrogate}", "--nx", "4", "--ny", "4", "--out", "{dir}/e.csv",
          "--bounds", "0,1,a,1"], "--bounds"),
        (["darcy", "--surrogate", "{surrogate}", "--out", "{dir}/p.csv", "--sweep", "8,1.5"],
         "--sweep"),
        (["verify-theory", "--out", "{dir}/t.csv", "--c-values", "1,,2"], "--c-values"),
        (["verify-theory", "--out", "{dir}/t.csv", "--sigma-values", "0.1;0.2"], "--sigma-values"),
        (["fit", "--field", "{field}", "--sigma", "0.13", "--out", "{dir}/s.txt", "--mmax", "3",
          "--offsets", "0,0;x,0;0.25,0"], "--offsets"),
    ],
    ids=["l1", "l2", "eval-bounds", "darcy-sweep", "c-values", "sigma-values", "offsets"],
)
def test_malformed_number_list_is_config_error(tmp_path, small_field, capsys, argv, option):
    surrogate = tmp_path / "sur.txt"
    assert main(_fit_args(small_field, surrogate)) == 0
    capsys.readouterr()
    argv = [a.format(field=small_field, surrogate=surrogate, dir=tmp_path) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot parse {option}=")
    assert not (tmp_path / argv[argv.index("--out") + 1]).exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--field", "{field}", "--out", "{dir}/s.txt", "--sigma", "1e-200"],
        ["fit", "--field", "{field}", "--out", "{dir}/s.txt", "--sigma", "1e-170"],
        ["fit", "--field", "{field}", "--out", "{dir}/s.txt", "--sigma", "1e200"],
    ],
    ids=["1e-200", "1e-170", "1e200"],
)
def test_fit_sigma_out_of_float_range_is_config_error(tmp_path, small_field, capsys, argv):
    argv = [a.format(field=small_field, dir=tmp_path) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / argv[argv.index("--out") + 1]).exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--surrogate", "{surrogate}", "--nx", "4", "--ny", "4", "--out", "{dir}/e.csv"],
        ["darcy", "--surrogate", "{surrogate}", "--out", "{dir}/p.csv"],
    ],
    ids=["eval", "darcy"],
)
def test_surrogate_with_overflowing_width_is_data_error(tmp_path, small_field, capsys, argv):
    surrogate = tmp_path / "sur.txt"
    assert main(_fit_args(small_field, surrogate)) == 0
    lines = surrogate.read_text().splitlines()
    first = next(i for i, l in enumerate(lines) if l.startswith("subdomain 0 ")) + 1
    toks = lines[first].split()
    toks[2] = "1e200"  # x, y, width, coefficient, generation
    lines[first] = " ".join(toks)
    surrogate.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    argv = [a.format(surrogate=surrogate, dir=tmp_path) for a in argv]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: malformed surrogate file") and "1e+200" in err
    assert not (tmp_path / argv[argv.index("--out") + 1]).exists()


def test_darcy_cg_that_cannot_converge_exits_4(small_field, capsys, monkeypatch):
    monkeypatch.setattr("fieldfit.darcy._vcycle", lambda levels, coarsest, r, k=0: np.zeros_like(r))
    with np.errstate(invalid="ignore"):
        assert main(["darcy", "--field", str(small_field)]) == 4
    assert "did not converge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "--field", "{field}", "--sigma", "0.13", "--out", "{missing}/s.txt"],
        ["darcy", "--field", "{field}", "--out-text", "{missing}/p.txt"],
        ["verify-theory", "--out", "{missing}/t.csv"],
        ["fit", "--field", "{field}", "--sigma", "0.13", "--out", "{ok}/s.txt",
         "--reports", "{missing}/r.csv"],
        ["darcy", "--field", "{field}", "--out", "{missing}/p.csv"],
        ["darcy", "--field", "{field}", "--surrogate", "{surrogate}", "--report", "{missing}/r.txt"],
        ["eval", "--surrogate", "{surrogate}", "--nx", "4", "--ny", "4", "--out", "{missing}/e.csv"],
    ],
)
def test_unwritable_output_is_data_error(tmp_path, small_field, capsys, monkeypatch, argv):
    surrogate = tmp_path / "sur.txt"
    assert main(_fit_args(small_field, surrogate)) == 0

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output path was checked")

    monkeypatch.setattr("fieldfit.cli.fit_parallel", no_work)
    monkeypatch.setattr("fieldfit.cli.solve_darcy", no_work)
    monkeypatch.setattr("fieldfit.partition.GlobalSurrogate.evaluate", no_work)
    monkeypatch.setattr("fieldfit.step_approx.error_grid", no_work)
    missing = tmp_path / "missing_dir"
    argv = [a.format(field=small_field, missing=missing, ok=tmp_path, surrogate=surrogate) for a in argv]
    capsys.readouterr()
    assert main(argv) == 3
    assert f"cannot write {missing}" in capsys.readouterr().err
    assert not missing.exists()
    assert not (tmp_path / "s.txt").exists()


def test_verify_theory_csv(tmp_path):
    out = tmp_path / "theory.csv"
    rc = main(["verify-theory", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "c,sigma,b,numeric,analytic,rel_diff"
    assert len(lines) == 2 + 9
    worst = max(float(l.split(",")[-1]) for l in lines[2:])
    assert worst <= 1e-6


def test_preset_step1d(tmp_path):
    outdir = tmp_path / "out"
    rc = main(["preset", "step1d", "--outdir", str(outdir)])
    assert rc == 0
    assert (outdir / "step1d_surrogate.txt").exists()
    assert (outdir / "step1d_reports.csv").exists()
    surrogate = load(outdir / "step1d_surrogate.txt")
    added = surrogate.locals[0].dictionary.generations
    assert int((added > 0).sum()) == 6


@pytest.mark.parametrize("name", ["step1d", "case-parallel"])
def test_preset_nonpositive_workers_is_config_error(tmp_path, name):
    outdir = tmp_path / "out"
    assert main(["preset", name, "--outdir", str(outdir), "--workers", "0"]) == 2
    assert not outdir.exists()


@pytest.mark.parametrize("outdir", ["{file}", "{file}/out"], ids=["is-a-file", "parent-is-a-file"])
def test_preset_unwritable_outdir_is_data_error(tmp_path, capsys, outdir):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    outdir = outdir.format(file=blocker)
    assert main(["preset", "step1d", "--outdir", outdir]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot write {outdir}: [Errno ")
    assert blocker.read_text() == ""


def test_preset_spe10_requires_file(tmp_path):
    assert main(["preset", "spe10", "--outdir", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "argv, output",
    [
        (["fit", "--field", "{field}", "--sigma", "0.13", "--out", "{dir}/s2.txt",
          "--reports", "{dir}/r.csv"], "{dir}/r.csv"),
        (["eval", "--surrogate", "{surrogate}", "--nx", "3", "--ny", "2", "--out", "{dir}/e.csv"],
         "{dir}/e.csv"),
        (["darcy", "--surrogate", "{surrogate}", "--nx", "4", "--ny", "4", "--out", "{dir}/p.csv"],
         "{dir}/p.csv"),
        (["darcy", "--field", "{field}", "--surrogate", "{surrogate}", "--report", "{dir}/r.txt"],
         "{dir}/r.txt"),
        (["verify-theory", "--c-values", "1", "--sigma-values", "0.1", "--out", "{dir}/t.csv"],
         "{dir}/t.csv"),
    ],
    ids=["fit-reports", "eval", "darcy-out", "darcy-report", "verify-theory"],
)
def test_outputs_start_with_one_provenance_stamp(tmp_path, small_field, argv, output):
    surrogate = tmp_path / "sur.txt"
    assert main(_fit_args(small_field, surrogate)) == 0
    argv = [a.format(field=small_field, surrogate=surrogate, dir=tmp_path) for a in argv]
    assert main(argv) == 0
    lines = Path(output.format(dir=tmp_path)).read_text().splitlines()
    assert lines[0] == "# " + _provenance(_build_parser().parse_args(argv))
    assert not any(line.startswith("# fieldfit") for line in lines[1:])
