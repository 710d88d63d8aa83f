"""``python -m benchmarks.paper`` rewrites its generated blocks and nothing
else of EXPERIMENTS.md (the tables themselves are checked by CI's
``paper`` job, which reruns the command and diffs the file)."""

import re

import pytest

from benchmarks.paper import EXPERIMENTS, rewrite

TEXT = "prose\n<!-- paper:a -->\nold\n<!-- /paper:a -->\nmore prose\n"


def test_rewrite_replaces_only_the_block():
    out = rewrite(TEXT, {"a": "new"})
    assert out == "prose\n<!-- paper:a -->\nnew\n<!-- /paper:a -->\nmore prose\n"
    assert rewrite(out, {"a": "new"}) == out


@pytest.mark.parametrize("text, key", [
    (TEXT, "b"),
    (TEXT.replace("<!-- /paper:a -->", ""), "a"),
], ids=["absent", "unclosed"])
def test_a_block_the_file_lacks_is_an_error(text, key):
    with pytest.raises(SystemExit, match=f"paper:{key}"):
        rewrite(text, {key: "new"})


def test_committed_blocks_round_trip():
    """Every generated block of the committed file is well formed: writing
    back what it holds changes nothing."""
    text = EXPERIMENTS.read_text()
    blocks = dict(re.findall(
        r"<!-- paper:(\S+) -->\n(.*?)\n<!-- /paper:\1 -->", text, re.S))
    assert len(blocks) == len(re.findall("^<!-- paper:", text, re.M)) > 0
    assert rewrite(text, blocks) == text
