"""The README's Layout block and config keys match the code they describe."""

import dataclasses
import re
from pathlib import Path

from gliomics import cli
from gliomics.classify import TrainConfig

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


def _config_keys(start: str, end: str) -> list:
    """The backquoted names in the README's config paragraph between
    ``start`` and ``end``, leaving out what parentheses hold."""
    text = " ".join((ROOT / "README.md").read_text().split())
    span = text.split(start, 1)[1].split(end, 1)[0]
    return re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", span))


def test_config_keys_match_the_code():
    top = _config_keys("The config accepts four keys, each optional:",
                       "`train` accepts")
    train = _config_keys("`train` accepts seven keys:", "An unknown")
    assert top == list(cli._CONFIG_KEYS)
    assert train == [f.name for f in dataclasses.fields(TrainConfig)]
