"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    expected = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    printed = []
    exec(block, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert expected == ["2", "2", "[[0.5], [1.0]]", "not_integrable", "4.0"]
    assert printed == expected
