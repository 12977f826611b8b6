"""Every output file is written by ``repkit.jsontext.write_text``.

That writer overwrites a file in place and then cuts it to length, instead
of truncating it on open, which is slow on ext4. This scans the package's
source, so that a second write path (an ``open`` for writing, or another
``os.open``) fails here.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repkit")
WRITER = ("jsontext.py", "write_text")


def _mode(call):
    """The mode of an ``open`` call: the second argument of the built-in
    and ``io.open``, the first of a method such as ``Path.open``."""
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    func = call.func
    builtin = isinstance(func, ast.Name) or (
        isinstance(func.value, ast.Name) and func.value.id == "io")
    position = 1 if builtin else 0
    return (call.args[position] if len(call.args) > position
            else ast.Constant("r"))


def _writes(tree):
    """The line numbers of calls in ``tree`` that open a file for
    writing: ``os.open``, and ``open`` with a mode holding w, a, x or +,
    or a mode that is not a literal."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
        if name != "open":
            continue
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"):
            lines.append(node.lineno)
            continue
        mode = _mode(node)
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")):
            lines.append(node.lineno)
    return lines


def _without_writer(tree, filename):
    """``tree`` less the body of the one writer."""
    if filename == WRITER[0]:
        tree.body = [node for node in tree.body
                     if not (isinstance(node, ast.FunctionDef)
                             and node.name == WRITER[1])]
    return tree


def _parse(filename):
    with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename)


@pytest.mark.parametrize("source,found", [
    ('open(p, "w", encoding="ascii")', 1),
    ('open(p, mode="a")', 1),
    ('io.open(p, "x")', 1),
    ('Path(p).open("r+")', 1),
    ('os.open(p, os.O_WRONLY)', 1),
    ('open(p, mode)', 1),
    ('open(p)', 0),
    ('open(p, "r", encoding="ascii")', 0),
    ('Path(p).open()', 0),
])
def test_scan_finds_write_opens(source, found):
    assert len(_writes(ast.parse(source))) == found


def test_write_text_is_the_only_write_path():
    names = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))
    assert WRITER[0] in names
    assert _writes(_parse(WRITER[0]))  # the writer's own os.open
    found = {name: _writes(_without_writer(_parse(name), name))
             for name in names}
    assert {name: lines for name, lines in found.items() if lines} == {}
