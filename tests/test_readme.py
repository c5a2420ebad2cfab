import shlex
from pathlib import Path

import pytest

from polyprod.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _cli_examples():
    """The ``polyprod ...`` lines of the README's CLI block, as argv lists."""
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("polyprod ")]
    return [shlex.split(line, comments=True)[1:] for line in lines]


EXAMPLES = _cli_examples()


def test_readme_has_cli_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(a) for a in EXAMPLES])
def test_readme_cli_example_succeeds(argv, tmp_path, monkeypatch, capsys):
    """Each documented command exits 0 within the default budgets; the
    stored poset it may read is written by ``build -o`` first."""
    monkeypatch.chdir(tmp_path)
    assert main(["build", "(IxI)*pt", "-o", "lattice.json"]) == 0
    assert main(argv) == 0, capsys.readouterr().err
