"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    """The bodies of a Markdown text's ```python blocks, in order."""
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def test_checker_reads_the_python_blocks():
    text = "Run:\n\n```sh\nls\n```\n\n```python\nx = 1\n```\n\ntext\n\n```python\ny = x\nz = y\n```\n"
    assert python_blocks(text) == ["x = 1\n", "y = x\nz = y\n"]


def test_readme_examples_run_in_order_in_one_namespace(capsys):
    # the second example reads the first one's names (h0, params, cutoff)
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["stat"].converged
    assert namespace["adjoint_consistency"](namespace["traj"], namespace["field"]) <= 1e-3
    assert len(capsys.readouterr().out.splitlines()) == 4
