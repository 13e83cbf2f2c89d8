"""The package exports only names that have a caller."""

import ast
import re
from pathlib import Path

import orlipde

PACKAGE = Path(orlipde.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent


def exported_names():
    """Names ``orlipde/__init__.py`` re-exports lazily from its modules."""
    return [name for names in orlipde._EXPORTS.values() for name in names]


def test_every_export_has_a_caller():
    # a caller is the CLI, the config layer or a test module other than this one
    callers = [PACKAGE / "cli.py", PACKAGE / "config.py"]
    callers += [p for p in sorted(TESTS.glob("test_*.py")) if p.name != Path(__file__).name]
    text = "\n".join(p.read_text() for p in callers)
    names = exported_names()
    assert len(names) > 50
    uncalled = [name for name in names if not re.search(rf"\b{re.escape(name)}\b", text)]
    assert not uncalled, f"exported without a caller: {uncalled}"
    assert all(hasattr(orlipde, name) for name in names)


def test_dir_lists_every_export():
    # the exports are lazy, so dir() reads them from the table, not the namespace
    assert orlipde.__all__ == exported_names()
    assert set(exported_names()) <= set(orlipde.__dir__())


# the stand-alone checks of the paper's hypotheses and their report types;
# each waits for a row in the solve's own report
AWAITING_A_ROW = {
    "verify_fundamental",
    "ReproductionReport",
    "coefficient_continuity_check",
    "RegularityReport",
    "embedding_exponents",
}


def test_every_name_awaiting_a_row_is_still_defined():
    # an exemption must not outlive the check it exempts
    defined = {
        node.name
        for p in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(p.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert not AWAITING_A_ROW - defined, f"exempt but not defined: {AWAITING_A_ROW - defined}"


def public_definitions(tree):
    """(qualified name, node) of every public module function and public class method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def test_every_public_definition_has_a_caller_in_the_package():
    # a caller is a name or attribute read in a package module outside the
    # definition's own body; an export from __init__.py is no caller
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    reads = [
        (module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    uncalled = []
    for module, tree in trees.items():
        for name, node in public_definitions(tree):
            if name.split(".")[0] in AWAITING_A_ROW:
                continue
            short = name.split(".")[-1]
            if not any(
                read == short and not (m == module and node.lineno <= line <= node.end_lineno)
                for m, line, read in reads
            ):
                uncalled.append(f"{module}:{name}")
    assert not uncalled, f"defined without a caller in the package: {uncalled}"


def test_no_module_mentions_numpy_random():
    # the seeded estimates draw from grid.SeededStream, so no cold run
    # pays for importing numpy.random
    mentions = [
        p.name for p in sorted(PACKAGE.glob("*.py"))
        if re.search(r"\b(np|numpy)\.random\b", p.read_text())
    ]
    assert not mentions, f"modules mentioning numpy.random: {mentions}"


def test_no_module_mentions_numpy_polynomial():
    # the quadratures take operators.gauss_legendre, so no cold run pays for
    # importing numpy.polynomial
    mentions = [
        p.name for p in sorted(PACKAGE.glob("*.py"))
        if re.search(r"\b(np|numpy)\.polynomial\b", p.read_text())
    ]
    assert not mentions, f"modules mentioning numpy.polynomial: {mentions}"


def test_cli_raises_only_the_directory_clash():
    # every rule about a config value lives in the config schema, so the
    # handlers take checked values and raise no config error of their own
    raises = re.findall(r"raise ConfigError\(.*", (PACKAGE / "cli.py").read_text())
    assert raises == ['raise ConfigError(f"output directory {out} exists; rerun with --force")']


def module_constants(tree):
    """(name, assignment node) of every ALL-CAPS name a module assigns at its top level."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and re.fullmatch(r"_*[A-Z][A-Z0-9_]*", target.id):
                yield target.id, node


def test_every_module_constant_is_read_in_the_package():
    # a knob that nothing reads any more (a close width, a cap) goes with its reader
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    reads = [
        (module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    ]
    constants = [(m, name, node) for m, tree in trees.items() for name, node in module_constants(tree)]
    assert len(constants) > 40
    unread = [
        f"{module}:{name}"
        for module, name, node in constants
        if not any(
            read == name and not (m == module and node.lineno <= line <= node.end_lineno)
            for m, line, read in reads
        )
    ]
    assert not unread, f"module constants that nothing reads: {unread}"
