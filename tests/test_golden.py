"""The command line's bytes against the committed corpus tests/golden/cli.jsonl.

Every line of the corpus is re-run in process, in file order, in one
scratch directory (tests/make_golden.py writes the corpus and says what a
line holds).  On every platform, each output must be well formed.  On the
platform the corpus records, every digest must match.  Elsewhere the
portable lines, whose output holds no computed number, must still match,
and the others are skipped with the fields that differ.
"""

import json
import math

import pytest

from homfrag.cli import _COMMANDS
from make_golden import CORPUS, corpus_line, platform_record, run_lines

RECORD, *LINES = map(json.loads, CORPUS.read_text().splitlines())
DIFFERS = sorted(k for k, v in platform_record().items()
                 if RECORD["platform"][k] != v)


@pytest.fixture(scope="module")
def reruns(tmp_path_factory):
    return run_lines([line["argv"] for line in LINES],
                     tmp_path_factory.mktemp("golden"))


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def _check_output(text):
    """A CSV output: a `# ` JSON header, the columns, then rows of finite
    floats, one per column.  A JSONL output: a JSON object per line."""
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    if text.startswith("# "):
        assert isinstance(_strict_json(lines[0][2:]), dict)
        width = len(lines[1].split(","))
        for row in lines[2:]:
            cells = list(map(float, row.split(",")))
            assert len(cells) == width and all(map(math.isfinite, cells)), row
    else:
        assert all(isinstance(_strict_json(line), dict) for line in lines)


# the test of file line k is line<k>
@pytest.mark.parametrize("n", range(len(LINES)), ids=lambda n: f"line{n + 2}")
def test_line_matches_the_corpus(reruns, n):
    want = LINES[n]
    code, stdout, stderr, out = reruns[n]
    out = None if out is None else out.decode()
    texts = [t for t in (stdout, out) if t]
    assert not any("np.float64(" in t for t in texts + [stderr])
    if code == 0:
        for text in texts:
            _check_output(text)
    if DIFFERS and not want["portable"]:
        pytest.skip(f"platform differs from the corpus's in {', '.join(DIFFERS)}")
    got = dict(corpus_line(want["argv"], reruns[n]), portable=want["portable"])
    assert got == want


def test_the_corpus_covers_every_subcommand_and_exit_code():
    commands = {a for line in LINES for a in line["argv"]} & set(_COMMANDS)
    assert commands == set(_COMMANDS)
    assert {line["exit"] for line in LINES} == {0, 2, 3, 4}
