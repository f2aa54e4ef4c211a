"""The README's library quickstart runs as written and prints what its
comment lines say, and its qprobe example prints what the README shows."""

import contextlib
import io
import pathlib
import re

from mekler.cli import main

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


def test_readme_qprobe_example_is_byte_identical(capsys):
    text = README.read_text()
    command = "$ mekler qprobe --group sl2:5 --n 2\n"
    block = text[text.index(command) + len(command) :]
    expected = block[: block.index("```")]
    assert main(["qprobe", "--group", "sl2:5", "--n", "2"]) == 0
    assert capsys.readouterr().out == expected
    assert "reps [0, 4, 40, 74]" in expected
