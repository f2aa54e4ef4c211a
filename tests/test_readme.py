"""The README's library quickstart runs as written and prints what its
comment lines say."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def quickstart_snippet() -> str:
    text = README.read_text()
    section = text[text.index("## Library quickstart") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quickstart_prints_its_comment_lines():
    code = quickstart_snippet()
    expected = [line[2:] for line in code.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
    assert len(expected) == 5
