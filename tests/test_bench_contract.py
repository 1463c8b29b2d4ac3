"""The names the benchmark in perfbench/ patches must exist.

Both its untimed evidence capture and its traced run replace gclab
functions by attribute name, so a library change that removes or renames
one of them crashes the benchmark. These checks import the benchmark's
modules without changing them and fail here instead.
"""

import importlib.util
from pathlib import Path

import pytest

import gclab
import gclab.labcli  # noqa: F401 - the workloads reach it as gclab.labcli
from gclab.configuration import MultiGraph

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load("tracer")
workloads = load("workloads")


def test_traced_graph_methods_are_multigraph_methods():
    for attr in tracer.GRAPH_METHODS:
        assert attr in vars(MultiGraph), attr


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_captured_names_are_module_attributes(name):
    for module, attr in workloads.WORKLOADS[name].capture:
        assert attr in vars(getattr(gclab, module)), f"{module}.{attr}"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_op_returns_text(name):
    text = workloads.WORKLOADS[name](gclab).op(0, small=True)
    assert isinstance(text, str) and text
