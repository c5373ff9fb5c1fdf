"""Every example imports: a name it takes from ``repro`` that is gone
fails here, not when a user runs the script.  ``main`` is not run."""

import glob
import importlib.util
import os

import pytest

EXAMPLES = sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), "..", "examples", "*.py")))


def test_examples_are_found():
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("path", EXAMPLES, ids=os.path.basename)
def test_example_imports(path):
    name = "example_" + os.path.basename(path)[:-3]
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
