"""Every ```python block of ``README.md`` runs as written.

Each block runs alone, in a fresh namespace, so a name that the package
deletes or renames fails here rather than in a reader's session.  The
install block must install the ``test`` extra, which names what the suite
imports beyond pytest (scipy, mpmath).
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)
INSTALL = re.search(r"^## Install and test\n\n```\n(.*?)^```$", TEXT, re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_install_block_installs_the_test_extra():
    assert INSTALL is not None
    assert re.search(r'^pip install -e "\.\[test\]"', INSTALL.group(1), re.MULTILINE)
