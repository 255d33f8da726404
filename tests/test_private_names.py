"""Layout facts stay in ``spaces``: no other module of the package imports a
private ``spaces`` name outside a short list, so the involution, twist,
shapes and plans are read from :func:`bruhatdiag.spaces.layout` and never
re-derived."""

import ast
from pathlib import Path

import bruhatdiag

#: The private ``spaces`` names other modules may use: the ambient-size
#: check, the draw loop, the split stack and the disc sampler.
ALLOWED = {"_check_ambient", "_draw_tangent", "_flipped_stack", "_disc_sample"}

PACKAGE = Path(bruhatdiag.__file__).parent


def _private_spaces_names(source: str) -> list[str]:
    """Private names ``source`` takes from ``spaces``: imported by any
    spelling of the module (``.spaces``, ``bruhatdiag.spaces``) or read as
    an attribute of the name ``spaces``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "spaces":
            names += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "spaces" and node.attr.startswith("_")):
            names.append(node.attr)
    return names


def test_detector_sees_imports_and_attribute_reads():
    source = ("from .spaces import _private_table, layout\n"
              "from bruhatdiag.spaces import _flipped_stack\n"
              "from . import spaces\n"
              "spaces._tangent_plan(spec)\n")
    assert _private_spaces_names(source) == ["_private_table", "_flipped_stack", "_tangent_plan"]


def test_no_module_uses_a_private_spaces_name_outside_the_list():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "spaces.py")
    assert len(modules) >= 7
    leaks = {}
    for path in modules:
        extra = sorted(set(_private_spaces_names(path.read_text())) - ALLOWED)
        if extra:
            leaks[path.name] = extra
    assert not leaks
