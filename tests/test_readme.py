"""The README's library quick start runs as a doctest."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_blocks_run():
    blocks = re.findall(r"^```pycon\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, f"README.md pycon block {i}", str(README), 0))
    assert runner.summarize(verbose=False).failed == 0
