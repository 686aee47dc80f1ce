"""Smoke tests: every example script parses and exposes a main().

Executing the examples end to end takes minutes (they solve real
instances); ``scripts/run_experiments.py`` covers that ground.  Here
we pin the cheaper contract: each script compiles, imports cleanly with
its module-level builders usable, and defines ``main``.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_parses_and_defines_main(path):
    tree = ast.parse(path.read_text())
    top_level = {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert "main" in top_level
    # Every example is documented.
    assert ast.get_docstring(tree)


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)  # runs imports + defs, not main()
    finally:
        sys.modules.pop(spec.name, None)
    assert callable(module.main)


def test_builders_produce_valid_graphs():
    """The example graph builders yield validated specifications."""
    import importlib.util

    def load(stem):
        path = Path(__file__).parent.parent / "examples" / f"{stem}.py"
        spec = importlib.util.spec_from_file_location(f"x_{stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    quickstart = load("quickstart")
    graph = quickstart.build_figure1_spec()
    assert graph.num_operations == 12

    memory_cuts = load("memory_cuts")
    fig3 = memory_cuts.build_figure3_graph()
    assert fig3.bandwidth("t1", "t3") == 4

    splitting = load("task_splitting")
    mixed = splitting.build_mixed_phase_graph()
    assert len(mixed.tasks) == 2
