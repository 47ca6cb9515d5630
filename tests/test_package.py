"""The package's lazily resolved public names (PEP 562)."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rydlab


def tracer_layers() -> tuple:
    """LAYERS of benchmarks/tracer.py, read without importing the tracer."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py")
                     .read_text(encoding="utf-8"))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "LAYERS" for t in node.targets))


@pytest.mark.parametrize("name", rydlab.__all__)
def test_each_public_name_is_its_layers_object(name):
    """rydlab.X is the very object of the layer module that defines it
    (classes and functions name that module; a float constant names none)."""
    layer = importlib.import_module(f"rydlab.{rydlab._LAYER_OF[name]}")
    value = getattr(rydlab, name)
    assert value is getattr(layer, name)
    assert getattr(value, "__module__", layer.__name__) == layer.__name__


def test_dir_and_star_import_cover_all():
    """dir(rydlab) lists every name of __all__, and `from rydlab import *`
    binds each of them to the package's object."""
    assert set(rydlab.__all__) <= set(dir(rydlab))
    namespace = {}
    exec("from rydlab import *", namespace)
    assert {name: namespace[name] for name in rydlab.__all__} == {
        name: getattr(rydlab, name) for name in rydlab.__all__}
    assert rydlab.__version__ == "0.1.0"


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        rydlab.no_such_name
    assert not hasattr(rydlab, "no_such_layer")
    with pytest.raises(ImportError):
        exec("from rydlab import no_such_name", {})


@pytest.mark.parametrize("layer", tracer_layers())
def test_each_layer_is_an_attribute(layer):
    """getattr(rydlab, layer) is the layer module, which the benchmark
    tracer relies on to wrap every layer."""
    assert getattr(rydlab, layer) is importlib.import_module(f"rydlab.{layer}")


def test_import_loads_no_layer():
    """A bare `import rydlab` loads no layer module and no numpy."""
    src = str(Path(rydlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, rydlab\n"
         "print(sorted(m for m in sys.modules if m.startswith('rydlab')),"
         " 'numpy' in sys.modules)"],
        env=env, check=True, capture_output=True, text=True, timeout=60).stdout
    assert out == "['rydlab'] False\n"
