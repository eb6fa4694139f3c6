"""The benchmark's tracer still finds every library name it wraps.

``perfbench/tracer.py`` replaces the functions in ``TRACED`` (and
``bending.diagonal_hamiltonian`` and ``cli.main``) by name, and raises on a
name the library no longer has; this keeps ``--trace 1`` runnable.
"""

import importlib
import sys
import types
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402

# the modules perfbench/run.py's import_polyspace puts in its namespace
MODULES = ("cli", "polygon", "polytope", "bending", "reconstruct", "frames",
           "quat", "verify")
EXTRA = (("bending", "diagonal_hamiltonian"), ("cli", "main"))


def polyspace_namespace():
    return types.SimpleNamespace(
        np=np,
        **{name: importlib.import_module(f"polyspace.{name}")
           for name in MODULES})


def resolve(mods, module, attr):
    owner = getattr(mods, module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(owner, cls_name))[meth]
    return getattr(owner, attr)


def bindings(mods):
    """Every value bound in a polyspace module, class or the suite table."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "polyspace" or name.startswith("polyspace."):
            out.update({(name, k): v for k, v in vars(module).items()})
    out.update({("RationalPolytope", k): v for k, v
                in vars(mods.polytope.RationalPolytope).items()})
    out.update({("SUITES", k): v for k, v in mods.verify.SUITES.items()})
    return out


def test_tracer_resolves_every_name_and_uninstalls():
    mods = polyspace_namespace()
    names = tracer.TRACED + EXTRA
    for module, attr in names:
        owner = getattr(mods, module)
        head = attr.split(".")[0]
        assert hasattr(owner, head), f"{module}.{attr} is gone"
    originals = {name: resolve(mods, *name) for name in names}
    before = bindings(mods)
    t = tracer.Tracer()
    try:
        t.install(mods)
        for name, original in originals.items():
            assert resolve(mods, *name) is not original, name
    finally:
        t.uninstall()
    after = bindings(mods)
    assert after.keys() == before.keys()
    changed = [k for k, v in before.items() if after[k] is not v]
    assert not changed, changed
