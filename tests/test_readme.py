"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    assert blocks, "README.md has no python example"
    for block in blocks:
        namespace = {}
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["bound"].satisfied
