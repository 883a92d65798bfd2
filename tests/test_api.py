"""The package's public surface: the README example runs as written, and
every exported name resolves."""

import re
from pathlib import Path

import annodist

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under '## Library'"
    exec(compile(block.group(1), f"{README}:Library", "exec"), {})


def test_every_export_resolves():
    for name in annodist.__all__:
        assert getattr(annodist, name) is not None, name
