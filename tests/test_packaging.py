"""Packaging claims: the library imports only the standard library, every
public name is used, every private name is used in the library, every
imported name is used, and every name the prose cites exists."""

from __future__ import annotations

import ast
import io
import re
import sys
import tokenize
from collections import Counter
from pathlib import Path

import syncomp


def test_package_imports_only_the_standard_library():
    # the README says everything runs on the standard library, and
    # pyproject.toml lists no dependencies
    names = set()
    for path in Path(syncomp.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.add(node.module.split(".")[0])
    assert names, "no imports found"
    assert names <= sys.stdlib_module_names, names - sys.stdlib_module_names


def test_every_public_name_is_used():
    # a name in a module's __all__ must appear in src, tests, bench or the
    # README outside the statement that defines it and the __all__ list;
    # the package's re-export is no use
    package = Path(syncomp.__file__).parent
    root = Path(__file__).resolve().parents[1]
    texts = {path: path.read_text() for path in
             [*package.glob("*.py"), *(root / "tests").glob("*.py"),
              *(root / "bench").glob("*.py"), root / "README.md"]}
    del texts[package / "__init__.py"]
    unused = []
    for path in package.glob("*.py"):
        spans = {}  # top-level name -> line span of its defining statement
        public = []
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", None)]
            else:
                continue
            for name in names:
                spans[name] = node.lineno, node.end_lineno
            if "__all__" in names:
                public = ast.literal_eval(node.value)
        for name in public:
            own = path.read_text().splitlines()
            for start, end in (spans["__all__"], spans[name]):
                own[start - 1:end] = [""] * (end - start + 1)
            if not any(re.search(rf"\b{re.escape(name)}\b", text)
                       for text in ["\n".join(own)] + [
                           text for other, text in texts.items()
                           if other != path]):
                unused.append(f"{path.name}:{name}")
    assert unused == []


def test_every_import_is_used():
    # every name a module imports must appear as a name in its code;
    # __init__.py is left out, as its imports are the package's
    # re-exports, and so are __future__ imports
    unused = []
    for path in Path(syncomp.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"):
                unused.extend(
                    f"{path.name}:{name}" for alias in node.names
                    if (name := alias.asname or alias.name.split(".")[0])
                    not in used)
    assert unused == []



def _references(tree: ast.AST) -> Counter:
    """The names a syntax tree refers to, counted: as names, attributes and
    imported names."""
    return Counter(getattr(ref, "id", None) or getattr(ref, "attr", None)
                   or ref.name for ref in ast.walk(tree)
                   if isinstance(ref, (ast.Name, ast.Attribute, ast.alias)))


def test_every_private_name_is_used():
    # a private module-level function, class or constant must be referenced
    # somewhere in src outside the statement that defines it: by name, as
    # an attribute or in an import.  Tests do not count, so code kept alive
    # only by its tests fails here
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in Path(syncomp.__file__).parent.glob("*.py")}
    everywhere = sum(map(_references, trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign):
                names = [getattr(node.target, "id", None)]
            else:
                continue
            inside = _references(node)
            unused.extend(f"{path.name}:{name}" for name in names
                          if name and name.startswith("_")
                          and not name.startswith("__")
                          and everywhere[name] == inside[name])
    assert unused == []


def test_every_private_field_is_read():
    # every __slots__ entry and every annotated class-level field of a
    # private class must be read as an attribute somewhere in src, so a
    # field that is only ever set, or not even that, fails here
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in Path(syncomp.__file__).parent.glob("*.py")}
    read = {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef)
                    and cls.name.startswith("_")):
                continue
            fields = []
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(
                        node.target, ast.Name):
                    fields.append(node.target.id)
                elif isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == "__slots__"
                        for t in node.targets):
                    fields.extend(ast.literal_eval(node.value))
            unread.extend(f"{path.name}:{cls.name}.{name}"
                          for name in fields if name not in read)
    assert unread == []


def test_every_private_name_in_prose_exists():
    # every _name cited in a docstring or comment of src or in the README
    # must be a name of src code, and every test_ name that src or the
    # README cites must be a test module or test function, so prose that
    # outlives a rename or a deletion fails here
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    code, prose = set(), [readme]
    sources = {path: path.read_text()
               for path in Path(syncomp.__file__).parent.glob("*.py")}
    for path, text in sources.items():
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.NAME:
                code.add(token.string)
            elif token.type == tokenize.COMMENT:
                prose.append(token.string)
        prose.extend(filter(None, (
            ast.get_docstring(node, clean=False)
            for node in ast.walk(ast.parse(text, str(path)))
            if isinstance(node, (ast.Module, ast.ClassDef,
                                 ast.FunctionDef)))))
    cited = set(re.findall(r"(?<!\w)_[A-Za-z]\w*", "\n".join(prose)))
    assert cited, "no private name cited"
    assert sorted(cited - code) == []
    tests = set()
    for path in (root / "tests").glob("test_*.py"):
        tests.add(path.stem)
        tests.update(node.name for node in ast.walk(ast.parse(
            path.read_text(), str(path))) if isinstance(node, ast.FunctionDef))
    named = set(re.findall(r"(?<!\w)test_\w+",
                           "\n".join([*sources.values(), readme])))
    assert named, "no test cited"
    assert sorted(named - tests) == []
