"""Every output file is opened by ``fieldfit.io.write_text``: no other module
of the package calls ``open`` with a write mode, so provenance stamps and
text layout have one implementation.  Reading (``open(path)``, as
``fieldfit.blas`` does with ``/proc/self/maps``) is allowed anywhere."""

import ast
from pathlib import Path

import fieldfit

PACKAGE = Path(fieldfit.__file__).resolve().parent


def _write_opens(source: str) -> list[int]:
    """Lines of ``open`` calls whose mode writes, or cannot be read off the source."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            position = 1  # open(file, mode)
        elif isinstance(node.func, ast.Attribute) and node.func.attr == "open":
            position = 0  # Path.open(mode)
        else:
            continue
        modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[position:position + 1]
        if not modes:
            continue  # the default mode, "r"
        mode = modes[0]
        known = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
        if not known or set(mode.value) & set("wax+"):
            lines.append(node.lineno)
    return lines


def test_checker_sees_write_modes():
    source = "\n".join(
        [
            "open(p)",
            "open(p, 'r')",
            "open(p, 'rb')",
            "open(p, 'w')",
            "open(p, mode='a')",
            "Path(p).open('x')",
            "open(p, 'r+')",
            "open(p, m)",
            "Path(p).open()",
        ]
    )
    assert _write_opens(source) == [4, 5, 6, 7, 8]


def test_only_io_opens_files_for_writing():
    found = {
        path.relative_to(PACKAGE).as_posix(): lines
        for path in sorted(PACKAGE.rglob("*.py"))
        if (lines := _write_opens(path.read_text()))
    }
    assert list(found) == ["io.py"]
    assert len(found["io.py"]) == 1
