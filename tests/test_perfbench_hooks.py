"""The benchmark's tracer wraps codegap names by lookup; a rename must fail here."""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name_and_restores_it():
    layers = load_layers()
    wrapped = [(path, attr) for path, attr, *_ in layers.SPANS + layers.OBSERVED]
    owners = [(layers._owner(path), attr) for path, attr in wrapped]
    originals = [vars(owner).get(attr) for owner, attr in owners]
    restore = layers.install(layers.Tracer())  # raises LookupError on a missing name
    try:
        assert all(vars(owner)[attr] is not original
                   for (owner, attr), original in zip(owners, originals))
    finally:
        restore()
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(owners, originals))
