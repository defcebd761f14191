"""The README's Layout block matches the tree it describes."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _layout_block():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Layout\n", 1)[1]
    return section.split("```", 2)[1]


def test_layout_names_every_module():
    listed = re.findall(r"^  (\w+\.py) ", _layout_block(), flags=re.M)
    modules = {p.name for p in (ROOT / "src" / "gliomics").glob("*.py")}
    assert sorted(listed) == sorted(modules - {"__init__.py", "__main__.py"})


def test_layout_directories_exist():
    dirs = re.findall(r"^(\S+)/", _layout_block(), flags=re.M)
    assert dirs
    for d in dirs:
        assert (ROOT / d).is_dir(), d
