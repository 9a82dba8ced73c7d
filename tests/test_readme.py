"""The README's Python quick start runs as written."""

import os
import re

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def test_readme_quick_start_runs():
    with open(README) as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(),
                            flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
