"""Private names stay in their module: no module of the package takes a
private name from another outside a short per-module list.  So layout facts
are read from :func:`bruhatdiag.spaces.layout` and never re-derived, and
every ratio route reaches its report through ``bruhat``'s own path.  The
same walk keeps the ``FAMILY`` registry in ``spaces`` and ``cli``."""

import ast
from pathlib import Path

import bruhatdiag

#: Module -> the private names other modules may take from it: the
#: ambient-size check, the draw loop, the split stack and the disc sampler
#: of ``spaces``; the validated-input cores of ``linalg`` and ``cayley``, and
#: the one-entry cache the split stack and the Cayley image keep their last
#: result in; the vectorized ratio check the limit checks share with the routes.
ALLOWED = {
    "spaces": {"_check_ambient", "_draw_tangent", "_flipped_stack", "_disc_sample"},
    "linalg": {"_flipped_determinants", "_json_number", "_LastFinite", "_minor_expansion"},
    "cayley": {"_cayley", "_verify_image"},
    "bruhat": {"_screened_ratios"},
}

PACKAGE = Path(bruhatdiag.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_names(source: str, wanted=_private) -> list[tuple[str, str]]:
    """``(module, name)`` of every private name (every name ``wanted``
    accepts) that ``source`` takes from a package module: imported by any
    spelling of the module (``.spaces``, ``bruhatdiag.spaces``) or read as
    an attribute of a name bound to it (``spaces``, or an alias such as
    ``golden_mod``)."""
    found, aliases = [], {m: m for m in MODULES}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")[-1]
            for alias in node.names:
                if module in MODULES and wanted(alias.name):
                    found.append((module, alias.name))
                elif alias.name in MODULES:  # from . import golden as golden_mod
                    aliases[alias.asname or alias.name] = alias.name
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and wanted(node.attr)):
            found.append((aliases[node.value.id], node.attr))
    return found


def test_detector_sees_imports_and_attribute_reads():
    source = ("from .spaces import _private_table, layout\n"
              "from bruhatdiag.spaces import _flipped_stack\n"
              "from .bruhat import __doc__, _ratio_report\n"
              "from . import spaces, golden as golden_mod\n"
              "spaces._tangent_plan(spec)\n"
              "golden_mod._rel(a, b)\n"
              "np._private_thing\n")
    assert sorted(_private_names(source)) == [
        ("bruhat", "_ratio_report"), ("golden", "_rel"), ("spaces", "_flipped_stack"),
        ("spaces", "_private_table"), ("spaces", "_tangent_plan")]


def test_no_module_takes_a_private_name_of_another_outside_the_list():
    assert len(MODULES) >= 8
    leaks = {}
    for path in sorted(PACKAGE.glob("*.py")):
        extra = sorted({(module, name) for module, name in _private_names(path.read_text())
                        if module != path.stem and name not in ALLOWED.get(module, ())})
        if extra:
            leaks[path.name] = extra
    assert not leaks
    # every allowed name is still taken somewhere, so the list cannot go stale
    taken = {pair for path in PACKAGE.glob("*.py") for pair in _private_names(path.read_text())}
    assert {(m, n) for m, names in ALLOWED.items() for n in names} <= taken


def test_only_spaces_and_cli_read_the_family_registry():
    # every other module reads a spec's tables from layout(), never FAMILY
    readers = {path.stem for path in PACKAGE.glob("*.py")
               if ("spaces", "FAMILY") in _private_names(path.read_text(), "FAMILY".__eq__)}
    assert readers == {"cli"}  # spaces defines it
    assert _private_names("from . import spaces\nspaces.FAMILY[f]\n", "FAMILY".__eq__) == [
        ("spaces", "FAMILY")]
