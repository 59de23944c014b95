"""The benchmark's tracer (perfbench/layers.py) wraps diffusionlab names from
outside the package.  These tests make a deleted or renamed traced name fail
here, in the test suite, rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from diffusionlab import rates

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


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
    tracer = layers.Tracer()
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in tracer._patches()]
    t = np.logspace(0.0, 3.0, 31)
    with tracer.installed():
        for owner, name, original in originals:
            assert owner.__dict__[name] is not original, f"{owner.__name__}.{name}"
        rates.fit_decay(t, t**-0.5, (1.0, 1e3))
    assert tracer.counts["rates.fit_calls"] == 1
    for owner, name, original in originals:
        assert owner.__dict__[name] is original, f"{owner.__name__}.{name}"
