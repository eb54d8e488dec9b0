"""Every fenced ``python`` block of README.md runs as a doctest."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _blocks() -> list[tuple[int, str]]:
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start(1)), m.group(1)) for m in _BLOCK.finditer(text)]


BLOCKS = _blocks()


@pytest.mark.parametrize("lineno, source", BLOCKS, ids=[f"line{n + 1}" for n, _ in BLOCKS])
def test_readme_block(lineno, source):
    test = doctest.DocTestParser().get_doctest(source, {}, f"README.md:{lineno + 1}",
                                               str(README), lineno)
    runner = doctest.DocTestRunner()
    result = runner.run(test)
    assert result.attempted > 0
    assert result.failed == 0
