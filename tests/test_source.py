"""Tests of the source tree itself: no name in ``src/mtharness`` is dead
code, one function renders every trailer line, the CLI restates no
library default, and ``tools/code_lines.py`` counts what it says it
counts."""

import ast
import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mtharness"
# Outside src, only these may keep a name of the package alive: the
# acceptance criteria and the benchmark. The other tests may not; what
# only they call belongs in tests/helpers.py.
CALLERS = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "benchmarks").glob("*.py"))]


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree):
    """Yields (name, node) for each module-level function, class and
    constant of ``tree``; a dunder such as ``__version__`` is read by
    Python or by packaging tools, not by code, and is left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


def _references(tree):
    """Yields (name, line) for each Name, Attribute and name imported from
    a module in ``tree``. Docstrings and comments hold none of these."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _package_imports(tree):
    """Names that ``tree`` takes from the package: each name imported from
    a module of it, and each attribute read from a module of it that was
    imported by name (``from mtharness import metastats``)."""
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mtharness":
            for alias in node.names:
                names.add(alias.name)
                modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(node.attr)
    return names


def unused_definitions(package, callers):
    """``module.name`` of each definition in ``package`` that no code in
    the package refers to outside the definition itself, and that no file
    in ``callers`` imports from the package. Names are matched by name
    alone, so a name that is used anywhere counts as used for every module."""
    trees = {path: _parse(path) for path in sorted(package.glob("*.py"))}
    references = {(path, name, line) for path, tree in trees.items() for name, line in _references(tree)}
    imported = set().union(*(_package_imports(_parse(path)) for path in callers))
    unused = []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            used = name in imported or any(
                ref_name == name and not (ref_path == path and line in inside) for ref_path, ref_name, line in references
            )
            if not used:
                unused.append(f"{path.stem}.{name}")
    return unused


def test_every_definition_in_the_package_is_used():
    assert unused_definitions(PACKAGE, CALLERS) == []


def _write(directory, name, text):
    path = directory / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def test_dead_code_check_sees_what_only_the_tests_would_call(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    _write(package, "a.py", '''\
        """Mentions dead() and UNUSED, which does not count."""
        from .b import helper

        LIMIT = 3
        UNUSED = 4
        __version__ = "1"


        def live():
            return helper(LIMIT)


        def recursive(n):
            return recursive(n - 1) if n else 0


        def dead():
            # live() in a comment is no reference either
            return live()


        class Imported:
            pass
        ''')
    _write(package, "b.py", '''\
        def helper(x):
            return x


        def read_as_attribute():
            pass
        ''')
    caller = _write(tmp_path, "caller.py", '''\
        import pkg
        from mtharness.a import Imported
        from mtharness import b

        b.read_as_attribute()
        pkg.recursive(1)
        ''')
    # live is called by dead, which nothing calls: only dead itself is found
    assert unused_definitions(package, [caller]) == ["a.UNUSED", "a.recursive", "a.dead"]


# --- trailer lines ------------------------------------------------------------


def _trailer_literals(node, scope):
    """Yields (scope, text) for each string literal under ``node`` that
    starts with `# `: a plain constant, or the first part of an f-string
    (a later part cannot start a line). ``scope`` names the innermost
    enclosing function or class, as ``module.name``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        scope = f"{scope.split('.')[0]}.{node.name}"
    if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.startswith("# "):
        yield scope, node.value
    children = ast.iter_child_nodes(node)
    if isinstance(node, ast.JoinedStr):
        children = [part for i, part in enumerate(node.values) if i == 0 or not isinstance(part, ast.Constant)]
    for child in children:
        yield from _trailer_literals(child, scope)


def trailer_literals(package):
    """``module.name: text`` for each literal in ``package`` that starts a
    `# ` line, outside ``cli._write``, which alone renders trailer lines."""
    return [
        f"{scope}: {text!r}"
        for path in sorted(package.glob("*.py"))
        for scope, text in _trailer_literals(_parse(path), path.stem)
        if scope != "cli._write"
    ]


def test_only_the_writer_renders_trailer_lines():
    assert trailer_literals(PACKAGE) == []


def test_trailer_check_sees_constants_and_f_string_heads(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    _write(package, "cli.py", '''\
        """# a docstring is a constant too."""
        # a comment is no literal


        def _write(notes):
            return [f"# {note}" for note in notes]


        def handler(table):
            return ["# guard empty", f"# system-score {table}", f"score {table}# not at the start"]


        class Report:
            def lines(self, n):
                return [f"{n}", "#no-space", f"{'# nested'}"]
        ''')
    assert trailer_literals(package) == [
        "cli: '# a docstring is a constant too.'",
        "cli.handler: '# guard empty'",
        "cli.handler: '# system-score '",
        "cli.lines: '# nested'",
    ]


# --- library defaults -------------------------------------------------------------


def default_reads(path):
    """``module.name: DEFAULT_X`` for each read of a ``DEFAULT_*`` name in
    the module at ``path``; ``name`` is the top-level function or class
    that reads it, or is left out for a read at module level."""
    reads = []
    for node in _parse(path).body:
        scope = f"{path.stem}.{node.name}" if hasattr(node, "name") else path.stem
        reads += [f"{scope}: {name}" for name, _ in _references(node) if name.startswith("DEFAULT_")]
    return reads


def test_the_cli_reads_no_library_default():
    # a knob left out on the command line is left out of the call (cli._given),
    # so the library function states its default alone
    assert default_reads(PACKAGE / "cli.py") == []


def test_default_check_sees_each_read(tmp_path):
    module = _write(tmp_path, "cli.py", '''\
        """DEFAULT_DOC in a docstring is no read."""
        from .guards import DEFAULT_A
        from . import guards

        LIMIT = guards.DEFAULT_B


        def run(ns, DEFAULT_ARG=None):
            # DEFAULT_COMMENT is no read either
            return DEFAULT_A if ns.a is None else guards.DEFAULT_C
        ''')
    assert default_reads(module) == [
        "cli: DEFAULT_A", "cli: DEFAULT_B", "cli.run: DEFAULT_A", "cli.run: DEFAULT_C",
    ]


# --- tools/code_lines.py ------------------------------------------------------

_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines are marked "# code"; every other line is not one.
FIXTURE = '''\
"""Module docstring,
on two lines."""

# a comment-only line
import os  # code

CONSTANT = 1  # code
"""A string statement that is not a docstring."""  # code


class Thing:  # code
    """Class docstring."""

    def method(self):  # code
        """Method docstring,

        spread over lines."""
        return [  # code
            os.sep,  # code

            CONSTANT,  # code
        ]  # code


def function():  # code
    """Function docstring."""
    # an indented comment
    value = "not a docstring"  # code
    return value  # code
'''


def test_code_lines_counts_only_lines_with_code(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert code_lines.code_lines(path) == FIXTURE.count("# code\n") == 12


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "a.py").write_text('"""Only a docstring."""\n\n\nx = (\n    1\n)\n', encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "3\ta.py\n12\tb.py\n15\ttotal\n"


def test_code_lines_defs_prints_each_definition_with_its_code_lines(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "a.py").write_text(
        "import functools\n\n\n@functools.cache  # counted with its function\n"
        "async def fetch():\n    '''Docstring.'''\n    return 1\n", encoding="utf-8")
    assert code_lines.main(["--defs", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "3\ta.py:fetch\n6\tb.py:Thing\n5\tb.py:Thing.method\n3\tb.py:function\n"
    assert code_lines.main([str(tmp_path)]) == 0  # without --defs: the per-module counts
    assert capsys.readouterr().out == "4\ta.py\n12\tb.py\n16\ttotal\n"
