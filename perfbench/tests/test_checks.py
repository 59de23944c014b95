"""The benchmark's own tests: every check accepts the program's real output
and rejects a wrong answer, and each workload runs end to end.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
from diffusionlab import experiments, pde, profiles, steady  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _rewrite_csv(path, column, index, value):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[index + 1].split(",")
    cells[column] = repr(float(value))
    lines[index + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_profile_check_rejects_perturbed_profile(tmp_path):
    pp = profiles.ProfileParams.self_similar(2.0, 0.25, 1.5)
    csv = tmp_path / "profile.csv"
    profiles.save_profile(profiles.integrate_profile(pp, 50.0, n=1), csv)
    assert checks.profile_csv_problems(csv, 1.5, 50.0) == []
    assert checks.profile_csv_problems(csv, 1.0, 50.0)  # wrong amplitude

    f = np.loadtxt(csv, delimiter=",", skiprows=1)[:, 1]
    mid = len(f) // 2
    _rewrite_csv(csv, 1, mid, f[mid - 1] * 1.001)  # a bump breaks monotonicity
    assert any("nonincreasing" in p for p in checks.profile_csv_problems(csv, 1.5, 50.0))
    _rewrite_csv(csv, 1, mid, -1e-3)
    assert any("positive" in p for p in checks.profile_csv_problems(csv, 1.5, 50.0))


def test_steady_check_rejects_perturbed_closed_form(tmp_path):
    csv = tmp_path / "steady.csv"
    steady.save_steady(steady.shoot_unit_profile(1.0, 2), csv)
    assert checks.steady_csv_problems(csv, 1.0, 2, 1e-8) == []
    w = np.loadtxt(csv, delimiter=",", skiprows=1)[:, 1]
    _rewrite_csv(csv, 1, 3, w[3] + 1e-7)
    assert any("(1-r^2)/(2n)" in p for p in checks.steady_csv_problems(csv, 1.0, 2, 1e-8))


def _ladder_run(eps):
    datum = pde.InitialDatum.algebraic(2.0).tapered(10.0)
    return pde.evolve(datum, p=2.0, n=1, R=10.0, eps=eps, t_end=1.0, norm_qs=(1.0,),
                      config=pde.SolverConfig(n_nodes=65, datum_mode="add"))


def test_ladder_check_rejects_reversed_pair():
    hi, lo = _ladder_run(1e-2), _ladder_run(1e-3)
    assert checks.ladder_violation(lo, hi) <= 1e-6
    assert checks.ladder_violation(hi, lo) > 1e-6


def test_record_check_rejects_changed_value(tmp_path):
    m = experiments.ExperimentManifest.from_dict(
        {"name": "h", "scenario": "remark_heat", "parameters": {"k": 4}, "output_dir": str(tmp_path / "h")})
    first = experiments.run_manifest(m)
    shutil.copytree(tmp_path / "h", tmp_path / "a")
    second = experiments.run_manifest(m)
    assert checks.record_differences(first, second) == []
    assert checks.tree_differences(tmp_path / "a", tmp_path / "h") == []

    payload = json.loads(second.to_json())
    payload["assertions"][0]["measured"] += 1.0
    assert checks.record_differences(first, json.dumps(payload)) == ["assertions[inf_coefficient].measured"]
    (tmp_path / "h" / "record.json").write_text(json.dumps(payload), encoding="utf-8")
    assert checks.tree_differences(tmp_path / "a", tmp_path / "h")


def test_scenario_check_rejects_wrong_table(tmp_path):
    params = dict(n_theta=5, n_m=4, theta_min=0.1, theta_max=10.0, m_min=-40.0, m_max=-0.05)
    m = experiments.ExperimentManifest.from_dict(
        {"name": "v", "scenario": "vartheta_table", "parameters": params, "output_dir": str(tmp_path)})
    record = experiments.run_manifest(m)
    assert checks.scenario_problems(record, tmp_path, params) == []
    table = json.loads((tmp_path / "vartheta_table.json").read_text(encoding="utf-8"))
    table["vartheta"][1][2] *= 1.0 + 1e-12
    (tmp_path / "vartheta_table.json").write_text(json.dumps(table), encoding="utf-8")
    assert checks.scenario_problems(record, tmp_path, params)


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _names(kind):
    return sorted(m["name"] for m in SPEC[kind])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload):
    out = _bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == _names("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_smoke_traced_run():
    out = _bench(ROOT, "--workload", "evolution", "--seed", "0", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == _names("per_layer")
    assert result["metrics"]["pde.evolves"]["value"] == 6


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""
