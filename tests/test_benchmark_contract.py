"""The benchmark (perfbench/) reads and wraps diffusionlab names from outside
the package.  These tests make a deleted or renamed name that it uses fail
here, in the test suite, rather than in a benchmark run."""

import ast
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from diffusionlab import pde, profiles, rates, steady

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
LAYERS = PERFBENCH / "layers.py"
MODULES = ("experiments", "pde", "profiles", "rates", "rk", "steady")


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_owned_where_it_is_patched(layers):
    patches = layers.Tracer()._patches()
    missing = [f"{owner.__name__}.{name}" for owner, name, _ in patches
               if name not in owner.__dict__]
    assert not missing


def test_installed_wraps_and_restores_the_originals(layers):
    # a short run through the wrappers: a change in how the package calls a
    # wrapped name (solve_banded from the stepper, integrate_dp45 from the
    # profile and steady shooters) fails here, not in a traced benchmark run.
    # Every tridiagonal solve of the evolve must pass through the traced
    # solve_banded, so the traced count equals the stepper's own.
    tracer = layers.Tracer()
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in tracer._patches()]
    t = np.logspace(0.0, 3.0, 31)
    with tracer.installed():
        for owner, name, original in originals:
            assert owner.__dict__[name] is not original, f"{owner.__name__}.{name}"
        rates.fit_decay(t, t**-0.5, (1.0, 1e3))
        run = pde.evolve(pde.InitialDatum.algebraic(2.0), p=2.0, n=1, R=20.0, eps=1e-3,
                         t_end=1.0, config=pde.SolverConfig(n_nodes=64))
        profiles.integrate_profile(profiles.ProfileParams.self_similar(2.0, 0.25, 1.0), 10.0, n=1)
        steady.shoot_unit_profile(2.0, 1)
    assert tracer.counts["rates.fit_calls"] == 1
    assert tracer.counts["pde.evolve_calls"] == 1
    assert run.stats["newton_solves"] > 0
    assert tracer.counts["pde.solves.n64"] == run.stats["newton_solves"]
    for key in ("rk.profiles.calls", "rk.steady.calls"):
        assert tracer.counts[key] > 0, key
    # The unit shot rejects no step, so every RHS call went through the rhs
    # the wrapper passed: 6 per accepted step and 1 to start each of the two
    # integrations (outward and inverted).
    calls, steps, evals = (tracer.counts[f"rk.steady.{key}"]
                           for key in ("calls", "steps", "rhs_evals"))
    assert calls == 2
    assert evals == 6 * steps + calls
    for owner, name, original in originals:
        assert owner.__dict__[name] is original, f"{owner.__name__}.{name}"


def test_solve_banded_keeps_its_positional_signature():
    # the benchmark's wrapper passes (l_and_u, ab, b) on by position
    params = inspect.signature(pde.solve_banded).parameters.values()
    assert [(p.name, p.kind) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in ("l_and_u", "ab", "b")]


def test_every_module_name_the_benchmark_reads_exists():
    # every `<module>.<name>` in perfbench/*.py, for the diffusionlab modules
    # it imports under their own names
    read = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                read.add((node.value.id, node.attr))
    assert read  # the walk found the benchmark's reads
    missing = [f"{mod}.{name}" for mod, name in sorted(read)
               if not hasattr(importlib.import_module(f"diffusionlab.{mod}"), name)]
    assert not missing


def _module_calls():
    """(where, dotted name, positional count, keyword names) of each call
    `<module>.<attr>...(...)` in perfbench/, for the diffusionlab modules it
    imports under their own names; calls with * or ** arguments are left out."""
    calls = []
    for path in sorted(PERFBENCH.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            chain, func = [], node.func
            while isinstance(func, ast.Attribute):
                chain.insert(0, func.attr)
                func = func.value
            if not (chain and isinstance(func, ast.Name) and func.id in MODULES):
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                continue
            calls.append((f"{path.relative_to(PERFBENCH.parent)}:{node.lineno}",
                          ".".join([func.id, *chain]), len(node.args),
                          [k.arg for k in node.keywords]))
    return calls


def test_every_call_the_benchmark_makes_binds_to_its_signature():
    # a dropped or renamed parameter that the benchmark passes fails here
    calls = _module_calls()
    assert any(name == "profiles.ProfileParams.self_similar" for _, name, _, _ in calls)
    unbound = []
    for where, name, npos, keywords in calls:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"diffusionlab.{module}")
        try:
            for attr in attrs:
                obj = getattr(obj, attr)
            inspect.signature(obj).bind(*[None] * npos, **dict.fromkeys(keywords))
        except (AttributeError, TypeError) as exc:
            unbound.append(f"{where} {name}: {exc}")
    assert not unbound
