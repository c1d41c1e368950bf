"""The package façade: what `import bchrom` loads, and what `__all__` holds."""

import os
import re
import subprocess
import sys
from pathlib import Path

import bchrom

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_facade() -> list[str]:
    """The names of the table in the README's Library section, in table order."""
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    section = section[: section.find("\n## ", 1)]
    return re.findall(r"^\| `(\w+)` \|", section, re.M)


def test_import_bchrom_leaves_the_cli_and_argparse_unloaded():
    src = str(Path(bchrom.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, bchrom; print(sorted(m for m in ('argparse', 'bchrom.cli') if m in sys.modules))"
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert loaded.stdout.strip() == "[]"


def test_all_is_the_readme_list_and_every_name_resolves():
    listed = readme_facade()
    assert len(listed) == len(set(listed)) == 15
    assert sorted(bchrom.__all__) == sorted(listed)
    assert all(getattr(bchrom, name, None) is not None for name in listed)
