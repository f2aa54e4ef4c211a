"""The README's library quickstart runs as written and prints what its
comment lines say, its qprobe example prints what the README shows, and
its flag table lists what each subcommand declares."""

import argparse
import contextlib
import io
import pathlib
import re

from mekler.cli import build_parser, main

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


def test_readme_flag_table_matches_the_parser():
    text = README.read_text()
    rows = re.findall(r"^\| `([a-z-]+)` \| ((?:`--[a-z-]+` ?)+) \|$", text, re.M)
    documented = {name: re.findall(r"`(--[a-z-]+)`", flags) for name, flags in rows}
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    declared = {
        name: [a.option_strings[0] for a in sp._actions if a.option_strings and a.dest != "help"]
        for name, sp in sub.choices.items()
    }
    assert documented == declared
    assert sum(map(len, declared.values())) == 39
