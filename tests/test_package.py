"""The package's public names: each resolves from its home module on
first use, and ``import coarsekit`` alone loads none of those modules."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coarsekit

SRC = Path(__file__).resolve().parent.parent / "src"
HOMES = ("errors", "metric", "groups", "covers", "property_a", "dimension")


def test_every_public_name_is_its_home_modules_object():
    modules = [importlib.import_module(f"coarsekit.{home}") for home in HOMES]
    for name in coarsekit.__all__:
        value = getattr(coarsekit, name)
        bound = [module for module in modules if name in vars(module)]
        assert bound, name
        assert all(getattr(module, name) is value for module in bound), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from coarsekit import *", namespace)
    assert set(coarsekit.__all__) <= set(namespace)


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as err:
        coarsekit.no_such_name
    assert str(err.value) == "module 'coarsekit' has no attribute 'no_such_name'"
    assert not hasattr(coarsekit, "no_such_name")


def test_names_load_their_home_module_on_first_use():
    probe = (
        "import sys, coarsekit\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'coarsekit' and m.count('.') < 2)\n"
        "print(*loaded(), sep=',')\n"
        "print(set(coarsekit.__all__) <= set(dir(coarsekit)))\n"
        "coarsekit.ball_cover\n"
        "print(*loaded(), sep=',')\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    bare, listed, after = out.stdout.split()
    assert bare == "coarsekit"
    assert listed == "True"
    # covers needs groups, metric and errors; property_a and dimension stay out
    assert after.split(",") == ["coarsekit", "coarsekit.covers", "coarsekit.errors", "coarsekit.groups", "coarsekit.metric"]
