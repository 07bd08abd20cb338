"""The package's exports and the README's library example stay in step with the code."""

import contextlib
import io
import re
from pathlib import Path

import qspecht

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in qspecht.__all__ if not hasattr(qspecht, name)] == []
    assert len(set(qspecht.__all__)) == len(qspecht.__all__)


def test_readme_library_example_runs():
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue()
