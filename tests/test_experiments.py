"""Tests for manifests, scenarios, sweeps, reports, and the CLI."""

import hashlib
import inspect
import json
import math
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from diffusionlab import experiments, pde, profiles, rates, steady
from diffusionlab.cli import main as cli_main
from diffusionlab.errors import DomainError
from diffusionlab.profiles import integrate_profile
from diffusionlab.experiments import (
    DEFAULTS,
    SCENARIOS,
    ExperimentManifest,
    _resolve_parameters,
    digest,
    load_records,
    report,
    run_manifest,
    sweep,
)


# record names that are not one path component; `report` writes files named after them
BAD_NAMES = ["", ".", "..", "demo/a", "../x", "a\\b"]


def manifest(tmp_path, name, scenario, params):
    return ExperimentManifest.from_dict(
        {
            "schema": 1,
            "name": name,
            "scenario": scenario,
            "parameters": params,
            "output_dir": str(tmp_path / name),
        }
    )


class TestManifest:
    def test_rejects_unknown_scenario(self, tmp_path):
        with pytest.raises(DomainError):
            manifest(tmp_path, "x", "not_a_scenario", {})

    def test_rejects_bad_schema(self, tmp_path):
        with pytest.raises(DomainError):
            ExperimentManifest.from_dict(
                {"schema": 99, "name": "x", "scenario": "remark_heat", "output_dir": "."}
            )

    def test_rejects_missing_fields(self):
        with pytest.raises(DomainError):
            ExperimentManifest.from_dict({"name": "x"})

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_rejects_a_name_that_is_not_one_path_component(self, tmp_path, name):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"name": name, "scenario": "remark_heat", "output_dir": "x"}))
        with pytest.raises(DomainError, match="one path component"):
            manifest(tmp_path, name, "remark_heat", {})
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))}: name "):
            ExperimentManifest.load(path)

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_scenario_takes_params_and_out_dir(self, scenario):
        assert list(inspect.signature(SCENARIOS[scenario]).parameters) == ["params", "out_dir"]

    def test_all_spec_scenarios_registered(self):
        assert set(SCENARIOS) == {
            "profile_atlas",
            "steady_scaling",
            "theorem200",
            "theorem100",
            "theorem2000_upper",
            "theorem2000_lower",
            "prop103",
            "remark_heat",
            "vartheta_table",
        }


class TestRun:
    def test_remark_heat_passes(self, tmp_path):
        rec = run_manifest(manifest(tmp_path, "heat", "remark_heat", {"k": 4}))
        assert rec.passed
        names = {a.name for a in rec.assertions}
        assert names == {"inf_coefficient", "heat_equation_residual"}
        # inf coefficient for k=4 is exactly 12
        coeff = next(a for a in rec.assertions if a.name == "inf_coefficient")
        assert coeff.measured == 12
        assert (tmp_path / "heat" / "record.json").exists()
        assert (tmp_path / "heat" / "heat_table.json").exists()

    def test_vartheta_table_passes(self, tmp_path):
        rec = run_manifest(manifest(tmp_path, "vt", "vartheta_table", {"n_theta": 6, "n_m": 6}))
        assert rec.passed
        table = json.loads((tmp_path / "vt" / "vartheta_table.json").read_text())
        assert len(table["vartheta"]) == 6

    def test_profile_atlas_small(self, tmp_path):
        rec = run_manifest(
            manifest(
                tmp_path,
                "atlas",
                "profile_atlas",
                {"ps": [2.0], "alpha_rels": [0.5], "A_list": [1.0], "n_list": [1]},
            )
        )
        assert rec.passed
        assert any(f.startswith("profile_") for f in rec.produced_files)

    @pytest.mark.parametrize("params", [{}, {"C1": 0.5}], ids=["default", "C1=0.5"])
    def test_theorem2000_upper_integrates_one_profile(self, tmp_path, monkeypatch, params):
        # f_A is f_1 rescaled; at C1 < 1/1.05 f_1 is integrated further out so
        # that f_A still covers the run's similarity range.
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return integrate_profile(*args, **kwargs)

        monkeypatch.setattr(profiles, "integrate_profile", counted)
        rec = run_manifest(manifest(tmp_path, "upper", "theorem2000_upper", params))
        assert rec.error is None and len(calls) == 1
        assert [a.name for a in rec.assertions] == ["linf_rate", "supersolution"]

    def test_failure_keeps_marker(self, tmp_path):
        # gamma <= 0 makes the scenario fail fast
        rec = run_manifest(
            manifest(tmp_path, "bad", "theorem2000_upper", {"gamma": -1.0})
        )
        assert not rec.passed
        assert rec.error is not None
        assert (tmp_path / "bad" / "failed").exists()
        assert (tmp_path / "bad" / "record.json").exists()

    def test_assertions_carry_claims(self, tmp_path):
        rec = run_manifest(manifest(tmp_path, "heat2", "remark_heat", {"k": 2}))
        assert all(a.claim for a in rec.assertions)

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_default_manifest_passes(self, tmp_path, monkeypatch, scenario):
        # The default manifests certify the paper: a verdict that flips is a
        # regression, whatever its cause.  No step of their evolves fails, so
        # none is retried at half dt.
        evolve, runs = pde.evolve, []

        def kept(*args, **kwargs):
            runs.append(evolve(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(pde, "evolve", kept)
        rec = run_manifest(manifest(tmp_path, scenario, scenario, {}))
        assert rec.error is None
        assert rec.passed
        assert [run.stats["halvings"] for run in runs] == [0] * len(runs)

    def test_inf_coefficient_is_measured_on_the_polynomial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(rates, "heat_polynomial", lambda k, x, t: 1 + x**k)
        rec = run_manifest(manifest(tmp_path, "heat", "remark_heat", {"k": 4}))
        coeff = next(a for a in rec.assertions if a.name == "inf_coefficient")
        assert coeff.measured == 1 and not coeff.passed

    @pytest.mark.parametrize("scenario,params", [
        ("profile_atlas", {"ps": []}),
    ])
    def test_no_assertions_gives_error_record(self, tmp_path, scenario, params):
        rec = run_manifest(manifest(tmp_path, "empty", scenario, params))
        assert rec.error == "DomainError: scenario made no assertions" and not rec.passed
        assert (tmp_path / "empty" / "failed").exists()
        assert json.loads((tmp_path / "empty" / "record.json").read_text())["error"] == rec.error

    def test_passing_rerun_clears_failed_marker(self, tmp_path):
        # k = 3 is rejected (odd k), k = 4 passes; both write into tmp_path/heat
        assert not run_manifest(manifest(tmp_path, "heat", "remark_heat", {"k": 3})).passed
        assert (tmp_path / "heat" / "failed").exists()
        assert run_manifest(manifest(tmp_path, "heat", "remark_heat", {"k": 4})).passed
        assert not (tmp_path / "heat" / "failed").exists()


class TestParameters:
    @pytest.mark.parametrize(
        "scenario,params,key",
        [
            ("remark_heat", {"tpyo_p": 3.0}, "tpyo_p"),
            ("vartheta_table", {"n_theta": "x"}, "n_theta"),
            ("remark_heat", {"k": 2.0}, "k"),
            ("theorem200", {"p": math.nan}, "p"),
            ("theorem200", {"gamma": 2.0}, "gamma"),  # derived from gamma_factor
            ("theorem100", {"norm_qs": [1.0]}, "norm_qs"),  # the run records only q
            ("profile_atlas", {"ps": [2.0, "x"]}, "ps"),
            ("theorem2000_lower", {"inner_radius": math.inf}, "inner_radius"),
        ],
    )
    def test_rejected_parameter_gives_error_record(self, tmp_path, scenario, params, key):
        rec = run_manifest(manifest(tmp_path, "bad", scenario, params))
        assert not rec.passed and rec.assertions == []
        assert rec.error.startswith("DomainError") and f"'{key}'" in rec.error
        assert (tmp_path / "bad" / "failed").exists()
        assert json.loads((tmp_path / "bad" / "record.json").read_text())["error"] == rec.error

    def test_parameters_not_an_object_gives_error_record(self, tmp_path):
        rec = run_manifest(manifest(tmp_path, "bad", "remark_heat", [2.0]))
        assert not rec.passed and rec.assertions == []
        assert rec.error == "DomainError: parameters must be an object, got [2.0]"

    @pytest.mark.parametrize(
        "scenario,params,key",
        [
            ("theorem2000_upper", {"p": 0.0}, "p"),
            ("prop103", {"p": -1.0}, "p"),
            ("theorem200", {"n": 0}, "n"),
            ("theorem2000_lower", {"R": 0.0}, "R"),
            ("theorem100", {"eps": -1e-7}, "eps"),
            ("prop103", {"n_nodes": 15}, "n_nodes"),
            ("theorem200", {"window": [1e2]}, "window"),
            ("theorem2000_upper", {"window": [1e3, 1e2]}, "window"),
            ("theorem2000_lower", {"window": [0.0, 1e2]}, "window"),
            ("theorem100", {"window": [1e2, 2e4]}, "window"),
            ("theorem2000_upper", {"t_end": 1e3}, "window"),  # the default window ends at 1e4
            ("prop103", {"dt_rel_max": 0.0}, "dt_rel_max"),  # evolve would never return
            ("theorem200", {"dt_rel_max": -0.01}, "dt_rel_max"),
            ("theorem2000_lower", {"inner_radius": -1.0}, "inner_radius"),
            ("theorem2000_upper", {"C1": 0.0}, "C1"),
            ("prop103", {"t_checks": [100.0]}, "t_checks"),  # one time makes no pair to compare
            ("prop103", {"t_checks": []}, "t_checks"),
            ("prop103", {"t_checks": [100.0, 10.0]}, "t_checks"),
            ("prop103", {"t_checks": [10.0, 10.0]}, "t_checks"),
            ("prop103", {"t_checks": [0.0, 10.0]}, "t_checks"),
            ("prop103", {"t_checks": [10.0, 2e3]}, "t_checks"),  # t_end is 1e3
        ],
    )
    def test_out_of_domain_parameter_is_rejected_before_the_run(
            self, tmp_path, monkeypatch, scenario, params, key):
        def no_solver(*args, **kwargs):
            raise RuntimeError("the solver ran")

        monkeypatch.setattr(pde, "evolve", no_solver)
        rec = run_manifest(manifest(tmp_path, "bad", scenario, params))
        assert rec.error.startswith("DomainError") and f"'{key}'" in rec.error
        assert not rec.passed and rec.assertions == []

    @pytest.mark.parametrize("scenario", list(SCENARIOS))
    def test_defaults_resolve_unchanged(self, scenario):
        assert _resolve_parameters(scenario, {}) == DEFAULTS[scenario]

    def test_window_ending_at_t_end_is_accepted(self):
        params = _resolve_parameters("theorem2000_upper", {"t_end": 1e3, "window": [10.0, 1e3]})
        assert params["window"] == [10.0, 1e3]

    @pytest.mark.parametrize("scenario", ["remark_heat", "vartheta_table"])
    def test_full_declared_table_matches_empty(self, tmp_path, scenario):
        full = run_manifest(manifest(tmp_path, "full", scenario, dict(DEFAULTS[scenario])))
        empty = run_manifest(manifest(tmp_path, "empty", scenario, {}))
        assert full.passed and full.assertions == empty.assertions
        assert full.produced_files == empty.produced_files
        for name in full.produced_files:
            assert (tmp_path / "full" / name).read_bytes() == (tmp_path / "empty" / name).read_bytes()

    def test_any_exception_gives_error_record(self, tmp_path, monkeypatch):
        def boom(params, out_dir):
            raise RuntimeError("scenario blew up")

        monkeypatch.setitem(SCENARIOS, "remark_heat", boom)
        recs = sweep([manifest(tmp_path, "boom", "remark_heat", {})], parallelism=1)
        assert recs[0].error == "RuntimeError: scenario blew up" and not recs[0].passed
        assert "Traceback" in (tmp_path / "boom" / "failed").read_text()
        assert (tmp_path / "boom" / "record.json").exists()


class TestSweep:
    def test_single_manifest_matches_run(self, tmp_path):
        m = manifest(tmp_path, "one", "remark_heat", {"k": 4})
        recs = sweep([m], parallelism=4)
        assert len(recs) == 1 and recs[0].passed

    @pytest.mark.parametrize("scenario, params", [
        ("vartheta_table", {"n_theta": 5, "n_m": 5}),
        ("steady_scaling", {"p_list": [2.0], "n_list": [1], "R_list": [0.5, 2.0]}),
        ("prop103", {"t_end": 100.0, "t_checks": [10.0, 100.0]}),
    ])
    def test_determinism_modulo_timestamps(self, tmp_path, scenario, params):
        # digest hashes the record without its timestamps and every other
        # file byte for byte, so state that leaks from one run into the next
        # would show in either.
        m = manifest(tmp_path, "det", scenario, params)
        run_manifest(m)
        first = digest(tmp_path / "det")
        run_manifest(m)
        second = digest(tmp_path / "det")
        assert "record.json" in first and len(first) > 1
        assert first == second

    def test_parallel_matches_serial_verdicts(self, tmp_path):
        ms = [
            manifest(tmp_path, f"h{k}", "remark_heat", {"k": k}) for k in (2, 4, 6, 8)
        ]
        serial = sweep(ms, parallelism=1)
        parallel = sweep(ms, parallelism=4)
        assert [r.passed for r in serial] == [r.passed for r in parallel]
        assert [
            [a.measured for a in r.assertions] for r in serial
        ] == [[a.measured for a in r.assertions] for r in parallel]

    @pytest.mark.parametrize("n_manifests,parallelism,workers", [(2, 4, 2), (3, 2, 2)])
    def test_pool_has_at_most_one_worker_per_manifest(
            self, tmp_path, monkeypatch, n_manifests, parallelism, workers):
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", SerialPool)
        ms = [manifest(tmp_path, f"h{i}", "remark_heat", {"seed": i}) for i in range(n_manifests)]
        recs = sweep(ms, parallelism=parallelism)
        assert pools == [workers] and all(r.passed for r in recs)

    def test_empty_sweep_rejected(self):
        with pytest.raises(DomainError):
            sweep([])

    def test_individual_failure_does_not_abort(self, tmp_path):
        ms = [
            manifest(tmp_path, "ok", "remark_heat", {"k": 4}),
            manifest(tmp_path, "bad", "theorem2000_upper", {"gamma": -1.0}),
        ]
        recs = sweep(ms, parallelism=1)
        assert [r.passed for r in recs] == [True, False]

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_bad_parameters_do_not_abort(self, tmp_path, parallelism):
        ms = [
            manifest(tmp_path, "typed", "vartheta_table", {"n_theta": "x"}),
            manifest(tmp_path, "ok", "remark_heat", {"k": 4}),
            manifest(tmp_path, "intk", "remark_heat", {"k": 2.0}),
            manifest(tmp_path, "nan", "remark_heat", {"seed": math.nan}),
        ]
        recs = sweep(ms, parallelism=parallelism)
        assert [r.name for r in recs] == ["typed", "ok", "intk", "nan"]
        assert [r.passed for r in recs] == [False, True, False, False]
        for m in ms:
            assert (Path(m.output_dir) / "record.json").exists()

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_output_dir_that_cannot_be_made_does_not_abort(self, tmp_path, parallelism):
        # an output_dir under a regular file: its record is returned, written
        # nowhere, and the manifest after it still runs and gets its record
        (tmp_path / "afile").write_text("kept\n")
        blocked = ExperimentManifest.from_dict({
            "schema": 1, "name": "blocked", "scenario": "remark_heat", "parameters": {},
            "output_dir": str(tmp_path / "afile" / "sub"),
        })
        recs = sweep([blocked, manifest(tmp_path, "ok", "remark_heat", {})],
                     parallelism=parallelism)
        assert recs[0].error.startswith("NotADirectoryError") and not recs[0].passed
        assert recs[1].passed and (tmp_path / "ok" / "record.json").exists()
        assert (tmp_path / "afile").read_text() == "kept\n"


class TestReport:
    def test_summary_and_plot_data(self, tmp_path):
        run_manifest(manifest(tmp_path, "heat", "remark_heat", {"k": 4}))
        run_manifest(
            manifest(
                tmp_path,
                "t200",
                "theorem200",
                {"t_end": 1000.0, "window": [10.0, 1000.0], "n_nodes": 400, "R": 100.0},
            )
        )
        records = load_records(tmp_path)
        text, files = report(records, tmp_path / "report")
        assert "PASS" in text
        assert (tmp_path / "report" / "summary.txt").exists()
        plot_files = [f for f in files if f.suffix == ".csv"]
        assert plot_files, "expected plot-data files for the norm series"
        header = plot_files[0].read_text().splitlines()[0]
        assert header.startswith("t,") and "overlay" in header

    def test_error_record_is_a_failed_row(self, tmp_path):
        rec = run_manifest(manifest(tmp_path, "bad", "theorem2000_upper", {"p": 0.0}))
        text, _ = report(load_records(tmp_path), tmp_path / "report")
        assert "(scenario error)" in text and text.rstrip().endswith("0 passed, 1 failed")
        assert f"FAIL  {rec.error}" in text

    def test_empty_report_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            report([], tmp_path)

    @pytest.mark.parametrize("name", BAD_NAMES)
    def test_load_records_rejects_a_name_that_is_not_one_path_component(self, tmp_path, name):
        run_manifest(manifest(tmp_path, "heat", "remark_heat", {}))
        path = tmp_path / "heat" / "record.json"
        path.write_text(path.read_text().replace('"name": "heat"', f'"name": {json.dumps(name)}'))
        with pytest.raises(DomainError, match=f"^{re.escape(str(path))}: name "):
            load_records(tmp_path)


class TestCli:
    def test_profile_verb(self, tmp_path, capsys):
        rc = cli_main(
            ["--out", str(tmp_path), "profile", "--p", "2", "--alpha", "0.25",
             "--A", "1", "--n", "1", "--xi-max", "10"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "identity residual" in out
        assert list(tmp_path.glob("profile_*.csv"))

    def test_profile_names_the_tail_guard_that_fired(self, tmp_path, capsys):
        # f_1 on [0, 50 / 1e-180] leaves the doubles in the tail: near
        # xi = 2.5e106 its xi^2 f^(-p) exceeds e^700 while f_1 is near 4e-31,
        # far above the positivity floor.  The error names that point on the
        # axes of f_A, A = 1e-120: xi = 2.5e106 * A^(3/2), f = 4e-31 * A.
        rc = cli_main(["--out", str(tmp_path), "profile", "--p", "3", "--alpha", "0.1",
                       "--A", "1e-120"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: profile tail left the range of doubles near "
                              "xi=2.46189e-74, f=3.89e-151: ")
        assert "(xi range too long)" in err and "positivity floor" not in err
        assert "2.46189e+106" not in err

    @pytest.mark.parametrize("R, message", [
        ("1e-200", "grid of N = 32 nodes on [0, R = 1e-200] has spacing 3.23e-202, "
                   "too fine for finite Laplacian coefficients"),
        ("1e300", "grid of N = 32 nodes on [0, R = 1e+300] has spacing 3.23e+298, "
                  "too coarse for a negative Laplacian diagonal"),
    ], ids=["fine", "coarse"])
    def test_evolve_refuses_a_grid_without_usable_laplacian_coefficients(
            self, tmp_path, capsys, R, message):
        # one error line and no warning: the test configuration turns a
        # RuntimeWarning (h^2 under- or overflowing, r^2 overflowing in the
        # Gaussian) into an error
        rc = cli_main(["--out", str(tmp_path), "evolve", "--p", "2", "--t-end", "10",
                       "--datum", "gaussian:sigma=2", "--n-nodes", "32", "--R", R])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_evolve_names_where_a_table_datum_ends(self, tmp_path, capsys):
        # the table stops at r = 5 on a grid to R = 20, so it is NaN from node 16 on
        table = tmp_path / "short.csv"
        table.write_text("r,u\n0,1\n1,0.5\n5,0.1\n")
        rc = cli_main(["--out", str(tmp_path), "evolve", "--p", "2", "--t-end", "1", "--R", "20",
                       "--n-nodes", "64", "--datum", f"table:{table}"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: initial datum is nan at r=5.079 (node 16 of 64 on [0, 20])\n")

    def test_evolve_step_too_small_names_dt_min_and_the_last_newton_failure(
            self, tmp_path, capsys):
        # coefficients near 2e303: no step from dt = 1e-6 down to dt_min converges
        rc = cli_main(["--out", str(tmp_path), "evolve", "--p", "2", "--t-end", "10",
                       "--datum", "gaussian:sigma=2", "--n-nodes", "32", "--R", "1e-150"])
        assert rc == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: dt underflow at t=0: no step down to dt_min = 1e-13 "
                            r"converged \(last: (Newton stalled at residual|no descent at "
                            r"iteration) [^\n]*\)\)\n", err), err

    def test_digest_drops_timestamps_and_lists_a_moved_value(self, tmp_path, capsys):
        m = manifest(tmp_path / "runs", "vt", "vartheta_table", {"n_theta": 5, "n_m": 5})
        run_manifest(m)
        shutil.copytree(tmp_path / "runs", tmp_path / "first")
        run_manifest(m)
        assert digest(tmp_path / "runs") == digest(tmp_path / "first")
        assert set(digest(tmp_path / "runs")) == {"vt/record.json", "vt/vartheta_table.json"}
        rec_path = tmp_path / "first" / "vt" / "record.json"
        rec = json.loads(rec_path.read_text())
        rec["started"] = "doctored"
        rec_path.write_text(json.dumps(rec))
        assert cli_main(["--out", str(tmp_path), "digest", str(tmp_path / "runs"),
                         "--against", str(tmp_path / "first")]) == 0
        assert capsys.readouterr().out == "0 of 2 files differ, 0 measured values moved\n"

        name, measured = rec["assertions"][0]["name"], rec["assertions"][0]["measured"]
        rec["assertions"][0]["measured"] = 2.0 * measured
        rec_path.write_text(json.dumps(rec))
        assert cli_main(["--out", str(tmp_path), "digest", str(tmp_path / "runs"),
                         "--against", str(tmp_path / "first")]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "differs: vt/record.json",
            f"moved: vt/record.json {name}: {2.0 * measured!r} -> {measured!r} (-0.5 relative)",
            "1 of 2 files differ, 1 measured values moved",
        ]

    def test_digest_lists_one_line_per_file(self, tmp_path, capsys):
        (tmp_path / "tree" / "sub").mkdir(parents=True)
        (tmp_path / "tree" / "sub" / "a.csv").write_bytes(b"x")
        assert cli_main(["--out", str(tmp_path), "digest", str(tmp_path / "tree")]) == 0
        assert capsys.readouterr().out == f"{hashlib.sha256(b'x').hexdigest()}  sub/a.csv\n"

    def test_scenarios_verb_lists_every_default_table(self, tmp_path, capsys):
        assert cli_main(["--out", str(tmp_path), "scenarios"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [line for line in lines if not line.startswith(" ")]
        assert names == list(DEFAULTS)
        table = lines[lines.index("theorem2000_upper") + 1:lines.index("theorem2000_lower")]
        assert table == [f"  {k} = {json.dumps(v)}" for k, v in DEFAULTS["theorem2000_upper"].items()]

    def test_steady_verb(self, tmp_path, capsys):
        rc = cli_main(["--out", str(tmp_path), "steady", "--p", "1", "--n", "1", "--R", "2"])
        assert rc == 0
        assert "center value 2" in capsys.readouterr().out

    @pytest.mark.parametrize("n", ["1", "3"])
    @pytest.mark.parametrize("p", ["1", "2", "13", "14", "18", "19", "1e30", "1e308"])
    def test_steady_verb_makes_a_profile_or_an_error(self, tmp_path, capsys, p, n):
        # a shot that cannot be made is an error line and status 2, never a traceback
        rc = cli_main(["--out", str(tmp_path), "steady", "--p", p, "--n", n])
        err = capsys.readouterr().err
        assert (rc, err) == (0, "") or (rc == 2 and err.startswith("error: ")), (rc, err)

    def test_evolve_and_fit_verbs(self, tmp_path, capsys):
        rc = cli_main(
            ["--out", str(tmp_path), "evolve", "--p", "2", "--n", "1", "--R", "20",
             "--eps", "1e-4", "--t-end", "200", "--datum", "algebraic:gamma=2",
             "--n-nodes", "128"]
        )
        assert rc == 0
        # the run's counters, on one line after the samples line
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"steps=\d+ halvings=0 newton_solves=\d+", lines[1]), lines
        series = tmp_path / "run.jsonl"
        assert series.exists()
        rc = cli_main(
            ["--out", str(tmp_path), "fit", "--series", str(series),
             "--norm", "linf", "--window", "1", "200"]
        )
        assert rc == 0
        assert "slope" in capsys.readouterr().out
        last = series.read_text().splitlines()[-1]
        assert "fits" in json.loads(last)

    def test_evolve_writes_one_snapshot_file_per_sample(self, tmp_path, capsys):
        # t = 10 and t_end = 10.0000001 agree to 6 digits: each still has its
        # own file, and the names sort in time order
        rc = cli_main(["--out", str(tmp_path), "evolve", "--p", "2", "--t-start", "1",
                       "--t-end", "10.0000001", "--R", "20", "--n-nodes", "64",
                       "--datum", "gaussian:sigma=2", "--snapshots"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[-1] == "wrote 22 snapshot CSVs"
        files = sorted((tmp_path / "snapshots").iterdir())
        assert len(files) == 22
        times = [float(f.stem.partition("_t")[2]) for f in files]
        assert times == sorted(times) and times[-2:] == [10.0, 10.0]

    def test_a_second_evolve_leaves_only_its_own_snapshot_files(self, tmp_path, capsys):
        # the run from t = 1 writes 21 files, the one from t = 2 writes 15 and
        # removes the 21; a file of another name in snapshots/ stays
        def evolve_into(out, t_start):
            rc = cli_main(["--out", str(out), "evolve", "--p", "2", "--t-start", t_start,
                           "--t-end", "10", "--R", "20", "--n-nodes", "64",
                           "--datum", "gaussian:sigma=2", "--snapshots"])
            assert rc == 0
            return capsys.readouterr().out.splitlines()[-1]

        (tmp_path / "both" / "snapshots").mkdir(parents=True)
        (tmp_path / "both" / "snapshots" / "notes.csv").write_text("kept\n")
        assert evolve_into(tmp_path / "both", "1") == "wrote 21 snapshot CSVs"
        assert evolve_into(tmp_path / "both", "2") == "wrote 15 snapshot CSVs"
        evolve_into(tmp_path / "fresh", "2")
        both = {f.name: f.read_bytes() for f in (tmp_path / "both" / "snapshots").iterdir()}
        fresh = {f.name: f.read_bytes() for f in (tmp_path / "fresh" / "snapshots").iterdir()}
        assert both.pop("notes.csv") == b"kept\n"
        assert both == fresh and len(fresh) == 15

    def test_fit_norm_ids(self, tmp_path, capsys):
        rc = cli_main(
            ["--out", str(tmp_path), "evolve", "--p", "2", "--n", "1", "--R", "20",
             "--eps", "1e-4", "--t-end", "200", "--datum", "algebraic:gamma=2",
             "--n-nodes", "64"]
        )
        assert rc == 0
        series = tmp_path / "run.jsonl"
        fits = []
        for norm in ("l2", "l2.0"):
            capsys.readouterr()
            rc = cli_main(["fit", "--series", str(series), "--norm", norm, "--window", "1", "200"])
            assert rc == 0
            fits.append((capsys.readouterr().out, series.read_text().splitlines()[-1]))
        assert fits[0] == fits[1]
        assert "l2" in json.loads(fits[0][1])["fits"]
        # a norm the run did not record is a user error, not a traceback
        rc = cli_main(["fit", "--series", str(series), "--norm", "l3", "--window", "1", "200"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'l3'" in err and "present: linf, l1, l2" in err

    def test_run_sweep_report_roundtrip(self, tmp_path, capsys):
        man_dir = tmp_path / "manifests"
        man_dir.mkdir()
        for k in (2, 4):
            (man_dir / f"heat{k}.json").write_text(
                json.dumps(
                    {
                        "schema": 1,
                        "name": f"heat{k}",
                        "scenario": "remark_heat",
                        "parameters": {"k": k},
                        "output_dir": str(tmp_path / f"out{k}"),
                    }
                )
            )
        rc = cli_main(["--workers", "2", "sweep", str(man_dir)])
        assert rc == 0
        rc = cli_main(["--out", str(tmp_path / "rep"), "report", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "rep" / "summary.txt").exists()

    def test_run_verb_exit_status_on_failure(self, tmp_path, capsys):
        man = tmp_path / "bad.json"
        man.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "name": "bad",
                    "scenario": "theorem2000_upper",
                    "parameters": {"gamma": -1.0},
                    "output_dir": str(tmp_path / "bad_out"),
                }
            )
        )
        rc = cli_main(["run", str(man)])
        assert rc == 1

    def test_sweep_runs_past_unreadable_manifests(self, tmp_path, capsys):
        man_dir = tmp_path / "manifests"
        man_dir.mkdir()
        for name, scenario in (("good", "remark_heat"), ("typo", "remark_haet")):
            (man_dir / f"{name}.json").write_text(json.dumps(
                {"schema": 1, "name": name, "scenario": scenario, "parameters": {},
                 "output_dir": str(tmp_path / name)}))
        (man_dir / "garbled.json").write_text("{not json")
        rc = cli_main(["sweep", str(man_dir)])
        assert rc == 2
        assert (tmp_path / "good" / "record.json").exists()
        assert not (tmp_path / "typo").exists()
        err = capsys.readouterr().err
        assert f"error: {man_dir / 'typo.json'}: " in err
        assert f"error: {man_dir / 'garbled.json'}: " in err

    def test_sweep_runs_past_a_name_that_is_not_one_path_component(self, tmp_path, capsys):
        man_dir = tmp_path / "manifests"
        man_dir.mkdir()
        for stem, name in (("good", "good"), ("nested", "demo/a")):
            (man_dir / f"{stem}.json").write_text(json.dumps(
                {"schema": 1, "name": name, "scenario": "remark_heat", "parameters": {},
                 "output_dir": str(tmp_path / stem)}))
        rc = cli_main(["sweep", str(man_dir)])
        assert rc == 2
        assert (tmp_path / "good" / "record.json").exists()
        assert not (tmp_path / "nested").exists()
        assert f"error: {man_dir / 'nested.json'}: name 'demo/a'" in capsys.readouterr().err
        assert cli_main(["--out", str(tmp_path / "rep"), "report", str(tmp_path)]) == 0

    def test_sweep_runs_past_a_non_string_output_dir(self, tmp_path, capsys):
        man_dir = tmp_path / "manifests"
        man_dir.mkdir()
        for name, output_dir in (("good", str(tmp_path / "good")), ("numbered", 5)):
            (man_dir / f"{name}.json").write_text(json.dumps(
                {"schema": 1, "name": name, "scenario": "remark_heat", "parameters": {},
                 "output_dir": output_dir}))
        rc = cli_main(["sweep", str(man_dir)])
        assert rc == 2
        assert (tmp_path / "good" / "record.json").exists()
        err = capsys.readouterr().err
        assert f"error: {man_dir / 'numbered.json'}: " in err and "'output_dir'" in err

    EVOLVE = ["evolve", "--p", "2", "--t-end", "10", "--n-nodes", "64"]
    FIT = ["fit", "--series", "{bad}", "--window", "1", "200"]
    PROFILE = ["profile", "--p", "2", "--alpha", "0.25"]
    # case: (the content of the input file `bad`, None for no file; the argv;
    # in both, {bad} and {dir} stand for the file and its directory, and the
    # error must then name the file)
    MALFORMED = {
        "manifest_not_json": ("{not json", ["run", "{bad}"]),
        "manifest_is_list": ("[1, 2]", ["run", "{bad}"]),
        "manifest_missing": (None, ["run", "{bad}"]),
        "manifest_scenario_not_string": (
            '{"name": "x", "scenario": ["vartheta_table"], "output_dir": "x"}', ["run", "{bad}"]),
        "manifest_output_dir_not_string": (
            '{"name": "x", "scenario": "remark_heat", "output_dir": 5}', ["run", "{bad}"]),
        "manifest_name_not_string": (
            '{"name": 7, "scenario": "remark_heat", "output_dir": "x"}', ["run", "{bad}"]),
        "manifest_name_with_separator": (
            '{"name": "demo/a", "scenario": "remark_heat", "output_dir": "x"}', ["run", "{bad}"]),
        "series_not_json": ('{"t": 1.0, "linf": 1.0, "lq": {}}\nnot json\n', FIT),
        "series_missing": (None, FIT),
        "series_not_object": ("5\n", FIT),
        "series_without_lq": ('{"t": 1.0, "linf": 1.0}\n', FIT),
        "series_lq_not_object": ('{"t": 1.0, "linf": 1.0, "lq": [2.0]}\n', FIT),
        "series_t_not_number": ('{"t": "abc", "linf": 1.0, "lq": {}}\n', FIT),
        "series_linf_not_number": ('{"t": 1.0, "linf": "abc", "lq": {}}\n', FIT),
        "series_lq_not_number": ('{"t": 1.0, "linf": 1.0, "lq": {"2": "abc"}}\n', [*FIT, "--norm", "l2"]),
        "datum_not_number": (None, [*EVOLVE, "--datum", "gaussian:sigma=x"]),
        "datum_missing_key": (None, [*EVOLVE, "--datum", "algebraic:C0=1"]),
        "datum_table_missing": (None, [*EVOLVE, "--datum", "table:{bad}"]),
        "datum_table_one_column": ("r\n0\n1\n2\n", [*EVOLVE, "--datum", "table:{bad}"]),
        "datum_table_not_ascending": ("r,u\n0,1\n2,1\n1,1\n", [*EVOLVE, "--datum", "table:{bad}"]),
        "datum_table_one_row": ("r,u\n0,1\n", [*EVOLVE, "--datum", "table:{bad}"]),
        "norm_qs_not_number": (None, [*EVOLVE, "--datum", "gaussian:sigma=2", "--norm-qs", "1,x"]),
        "norm_qs_zero": (None, [*EVOLVE, "--datum", "gaussian:sigma=2", "--norm-qs", "0"]),
        "inner_radius_negative": (None, [*EVOLVE, "--datum", "gaussian:sigma=2", "--inner-radius", "-1"]),
        "t_start_negative": (None, [*EVOLVE, "--datum", "gaussian:sigma=2", "--t-start", "-2"]),
        "evolve_p_negative": (None, [*EVOLVE, "--datum", "gaussian:sigma=2", "--p", "-1"]),
        "evolve_n_zero": (None, [*EVOLVE, "--datum", "gaussian:sigma=2", "--n", "0"]),
        "evolve_t_end_inf": (None, [*EVOLVE, "--datum", "gaussian:sigma=2", "--t-end", "inf"]),
        "evolve_t_end_nan": (None, [*EVOLVE, "--datum", "gaussian:sigma=2", "--t-end", "nan"]),
        "evolve_R_inf": (None, [*EVOLVE, "--datum", "gaussian:sigma=2", "--R", "inf"]),
        "evolve_p_inf": (None, [*EVOLVE, "--datum", "gaussian:sigma=2", "--p", "inf"]),
        "profile_xi_max_below_xi0": (None, [*PROFILE, "--xi-max", "1e-6"]),
        "profile_xi_max_nan": (None, [*PROFILE, "--xi-max", "nan"]),
        "profile_A_inf": (None, [*PROFILE, "--A", "inf"]),
        "profile_A_overflow": (None, [*PROFILE, "--p", "3", "--alpha", "0.1", "--A", "1e300"]),
        "profile_A_underflow": (None, [*PROFILE, "--p", "3", "--alpha", "0.1", "--A", "1e-300"]),
        "steady_p_nan": (None, ["steady", "--p", "nan"]),
        "steady_p_inf": (None, ["steady", "--p", "inf"]),
        "steady_R_nan": (None, ["steady", "--p", "2", "--R", "nan"]),
        "steady_R_inf": (None, ["steady", "--p", "2", "--R", "inf"]),
        "manifest_output_dir_under_a_file": (  # the manifest file itself is the regular file
            '{"name": "x", "scenario": "remark_heat", "output_dir": "{bad}/sub"}', ["run", "{bad}"]),
        "out_under_a_file": ("", ["--out", "{bad}/sub", "scenarios"]),  # overrides the first --out
        "record_not_json": ("{not json", ["report", "{dir}"]),
        "record_lacks_fields": ('{"name": "x", "assertions": []}', ["report", "{dir}"]),
        "record_name_with_separator": (
            json.dumps({"name": "../x", "scenario": "s", "manifest_hash": "", "started": "",
                        "finished": "", "produced_files": [], "assertions": [], "passed": True}),
            ["report", "{dir}"]),
        "record_plot_label_with_separator": (
            json.dumps({"name": "x", "scenario": "s", "manifest_hash": "", "started": "",
                        "finished": "", "produced_files": [], "assertions": [], "passed": True,
                        "plots": [{"series": "run.jsonl", "norm": "linf", "rate": 0.5,
                                   "label": "x/y"}]}),
            ["report", "{dir}"]),
        "record_plot_lacks_fields": (
            json.dumps({"name": "x", "scenario": "s", "manifest_hash": "", "started": "",
                        "finished": "", "produced_files": [], "assertions": [], "passed": True,
                        "plots": [{"series": "run.jsonl"}]}),
            ["report", "{dir}"],
        ),
    }

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_malformed_input_is_an_error_not_a_crash(self, tmp_path, capsys, monkeypatch, case):
        def no_step(*args, **kwargs):
            raise RuntimeError("the time stepper ran")

        # malformed input is refused before the first time step, so a missing
        # check fails here rather than running on (an infinite t_end never ends)
        monkeypatch.setattr(pde._Stepper, "step", no_step)
        content, argv = self.MALFORMED[case]
        bad = tmp_path / "in" / "record.json"  # the name `report` looks for
        bad.parent.mkdir()
        if content is not None:
            bad.write_text(content.replace("{bad}", str(bad)))
        rc = cli_main(["--out", str(tmp_path), *(a.format(bad=bad, dir=bad.parent) for a in argv)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if any("{" in a for a in argv):
            assert str(bad) in err

    def test_report_names_a_malformed_series(self, tmp_path, capsys):
        rec_dir = tmp_path / "rec"
        rec_dir.mkdir()
        (rec_dir / "record.json").write_text(json.dumps(
            {"name": "x", "scenario": "s", "manifest_hash": "", "started": "", "finished": "",
             "produced_files": [], "assertions": [], "passed": True,
             "plots": [{"series": "run.jsonl", "norm": "linf", "rate": 0.5, "label": "l"}]}))
        (rec_dir / "run.jsonl").write_text('{"t": "abc", "linf": 1.0, "lq": {}}\n')
        rc = cli_main(["--out", str(tmp_path / "rep"), "report", str(rec_dir)])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {rec_dir / 'run.jsonl'}:1: ")

    def test_gaussian_datum_spec(self, tmp_path):
        rc = cli_main(
            ["--out", str(tmp_path), "evolve", "--p", "2", "--n", "1", "--R", "10",
             "--eps", "1e-6", "--t-end", "10", "--datum", "gaussian:sigma=2",
             "--n-nodes", "64"]
        )
        assert rc == 0


SPECIAL = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan,
           1e300, -1e300, 1e-300, -1e-300, 0.1, 1.0 / 3.0, -123456789.125]


@pytest.mark.parametrize("writer", ["save_profile", "save_steady", "snapshots_to_csv"])
def test_csv_writers_match_the_per_value_format(tmp_path, writer):
    # The writers format every row in one %-operation; pin the bytes to the
    # per-value f"{x:.17g}" form on zeros, subnormals, infinities, nan and
    # extremes.
    x = np.array(SPECIAL)
    y = x[::-1].copy()
    if writer == "save_profile":
        prof = profiles.Profile(profiles.ProfileParams(2.0, 0.25, 1.0), 1, x, y, x)
        profiles.save_profile(prof, tmp_path / "out.csv")
        header, cols = "xi,f,fp", (x, y, x)
    elif writer == "save_steady":
        steady.save_steady(steady.SteadyProfile(2.0, 1, 1.0, x, y, x), tmp_path / "out.csv")
        header, cols = "r,w", (x, y)
    else:
        run = pde.EvolutionRun(2.0, 1, 1.0, 0.0, x, [], [(1.5, y)])
        [path] = pde.snapshots_to_csv(run, tmp_path)
        path.rename(tmp_path / "out.csv")
        header, cols = "r,u", (x, y)
    rows = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in zip(*cols))
    assert (tmp_path / "out.csv").read_bytes() == (header + "\n" + rows).encode()
