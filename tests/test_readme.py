"""The README against the package it describes."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_package_layout_names_every_module():
    # one row per module of src/lindbladff but __init__: a module added
    # without a row, or a row left behind by a deleted module, fails
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        layout = fh.read().split("## Package layout", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", layout, flags=re.M)
    package = os.path.join(ROOT, "src", "lindbladff")
    modules = [name[:-3] for name in os.listdir(package)
               if name.endswith(".py") and name != "__init__.py"]
    assert len(rows) == len(set(rows))
    assert sorted(rows) == sorted(modules)
