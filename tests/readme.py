"""The README's fenced blocks, and its CLI walkthrough as the argv lists
that tests run through ``cli.main``, so that they run what it shows."""

import json
import os
import re
import shlex
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(title: str, lang: str = "") -> list:
    """The bodies of the ``lang`` blocks in the README section ``title``."""
    section = README.read_text().split(f"\n## {title}\n")[1]
    return re.findall(rf"^```{lang}\n(.*?)^```", section.split("\n## ")[0],
                      flags=re.M | re.S)


def commands(base, config: dict, **flags) -> list:
    """The walkthrough's ``gliomics`` lines, with paths (each word but a
    flag and its value, and the values of ``--out`` and ``--config``)
    joined under ``base`` and ``config`` written as the ``--config`` file.
    ``jobs="1"`` sets ``--jobs``; setting a flag not there fails."""
    values = {f"--{k.replace('_', '-')}": v for k, v in flags.items()}
    argvs, given = [], set()
    sh = "".join(blocks("CLI walkthrough", "sh")).replace("\\\n", " ")
    for line in sh.splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] != ["gliomics"]:
            continue
        argv = words[1:2]
        for prev, word in zip(words[1:], words[2:]):
            if prev.startswith("--") and prev not in ("--out", "--config"):
                given.add(prev)
                word = values.get(prev, word)
            elif not word.startswith("--"):
                word = os.path.join(base, word)
            if prev == "--config":
                Path(word).write_text(json.dumps(config))
            argv.append(word)
        argvs.append(argv)
    unknown = sorted(values.keys() - given)
    assert not unknown, f"the walkthrough gives no {unknown}"
    return argvs
