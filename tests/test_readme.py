"""The README's "Library quickstart" block runs and prints what it says.

Each ``print(...)`` line of the block ends in a ``# value`` comment; the
value is the comment up to its first ": ", and it must equal the line
that call prints.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart():
    text = README.read_text()
    section = text[text.index("## Library quickstart"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_quickstart_prints_its_comments():
    code = quickstart()
    expected = [
        line.split("#", 1)[1].strip().split(": ", 1)[0]
        for line in code.splitlines()
        if line.startswith("print(") and "#" in line
    ]
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {})
    assert expected and len(expected) == code.count("print(")  # every print is checked
    assert printed.getvalue().splitlines() == expected
