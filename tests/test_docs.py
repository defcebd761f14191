"""The README's Layout block, config keys and train.json example match the
code they describe."""

import dataclasses
import re

import readme

from gliomics import cli
from gliomics.classify import TrainConfig
from gliomics.experiments import CLASSIFIERS, EXPERIMENTS

ROOT = readme.README.parent


def test_layout_names_every_module():
    [layout] = readme.blocks("Layout")
    listed = re.findall(r"^  (\w+\.py) ", layout, flags=re.M)
    modules = {p.name for p in (ROOT / "src" / "gliomics").glob("*.py")}
    assert sorted(listed) == sorted(modules - {"__init__.py", "__main__.py"})


def test_layout_directories_exist():
    [layout] = readme.blocks("Layout")
    dirs = re.findall(r"^(\S+)/", layout, flags=re.M)
    assert dirs
    for d in dirs:
        assert (ROOT / d).is_dir(), d


def _config_keys(start: str, end: str) -> list:
    """The backquoted names in the README's config paragraph between
    ``start`` and ``end``, leaving out what parentheses hold."""
    text = " ".join(readme.README.read_text().split())
    span = text.split(start, 1)[1].split(end, 1)[0]
    return re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", span))


def test_config_keys_match_the_code():
    top = _config_keys("The config accepts four keys, each optional:",
                       "`train` accepts")
    train = _config_keys("`train` accepts six keys:", "An unknown")
    assert top == list(cli._CONFIG_KEYS)
    assert train == [f.name for f in dataclasses.fields(TrainConfig)]


def test_train_json_example_loads(tmp_path):
    # train-eval's config checks, each raising what would exit 2
    path = tmp_path / "train.json"
    [example] = readme.blocks("CLI walkthrough", "json")
    path.write_text(example)
    config = cli._load_config(path)
    cli._config_names(config, "classifiers", CLASSIFIERS)
    cli._config_names(config, "experiments", [name for name, _ in EXPERIMENTS])
    cli._train_config(config.get("train", {}))
