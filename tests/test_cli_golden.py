"""CLI output pinned byte for byte.

tests/data/cli_golden.json holds, for fast invocations covering every
subcommand and mode, the exit code and the text, csv and json stdout that
qprim printed before its handlers were folded into one report path.  The
elapsed time is stripped (the "finished in" line of text output and
elapsed_ms of json), and so is the json `inputs` object, which now echoes
every option.  The file is reference data: it is compared against, never
rewritten from the code under test.
"""

import json
import pathlib
import re

import pytest

from qprim.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "cli_golden.json").read_text())


def normalized_run(capsys, argv: list[str], fmt: str) -> tuple[int, str]:
    """Exit code and stdout of one invocation with the run time taken out."""
    code = main([*argv, "--format", fmt])
    out = capsys.readouterr().out
    if fmt == "text":
        out = re.sub(r"(?m)^\[\w+ finished in [0-9.]+ ms\]\n", "", out)
    elif fmt == "json" and out:
        doc = json.loads(out)
        del doc["elapsed_ms"], doc["inputs"]
        out = json.dumps(doc)
    return code, out


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_cli_output_matches_golden(capsys, case, fmt):
    code, out = normalized_run(capsys, case["argv"], fmt)
    assert code == case["exit"]
    assert out == case[fmt]
