"""The README's library quick start runs as a doctest, and its CLI block runs."""

import doctest
import re
import shlex
from pathlib import Path

from moebius_km import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_blocks_run():
    blocks = re.findall(r"^```pycon\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, f"README.md pycon block {i}", str(README), 0))
    assert runner.summarize(verbose=False).failed == 0


def test_cli_block_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [line for b in blocks for line in b.replace("\\\n", " ").splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("moebius ")]
    assert [argv[1] for argv in commands] == ["eval", "sum", "constants", "scan", "verify", "bench"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, " ".join(argv)
    assert (tmp_path / "scan.csv").read_text().startswith(cli.CSV_HEADER + "\n")
