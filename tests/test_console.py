"""The CLI as a separate process: the checks that only a process shows.

tests/test_cli.py holds every other check of the CLI contract, through
cli.main in-process. Here the `emocause` script runs in a child process, or
`python -m emocause.cli` where no script is on PATH (conftest.run_child),
to check that main's return value becomes the process's exit status and
that a refusal reaches stderr as one `error:` line, not a traceback.
"""

from __future__ import annotations

import json
import re

import pytest

from emocause.cli import main

from conftest import run_child


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """gen --seed 1's dialogue, the same with 4-component emotion vectors,
    and a malformed JSON file."""
    root = tmp_path_factory.mktemp("console")
    dialogue = root / "d.dialogue.json"
    assert main(["gen", "--seed", "1", "--out-prefix", str(root / "d")]) == 0
    doc = json.loads(dialogue.read_text())
    for audio in doc["audio"]:
        audio["emotion"] = [0.25] * 4
    (root / "short.json").write_text(json.dumps(doc))
    (root / "bad.json").write_text("{nope")
    return {"dialogue": dialogue, "short": root / "short.json", "bad": root / "bad.json"}


def assert_exit(proc, code):
    """The process exited with `code`, with nothing on stderr after a
    success and one `error:` line after a refusal."""
    assert proc.returncode == code, proc.stderr
    assert re.fullmatch("error: [^\n]*\n" if code else "", proc.stderr), proc.stderr


@pytest.mark.parametrize("code, argv", [
    (0, ["validate", "{dialogue}"]),
    (1, ["run", "--dialogue", "{short}", "--out-dir", "{tmp}/out"]),
    (3, ["run", "--dialogue", "{dialogue}", "--out-dir", "{tmp}/out", "--embedder", "remote:m:8"]),
    (4, ["validate", "{bad}"]),
], ids=["ok", "validation", "provider", "format"])
def test_the_exit_code_is_the_process_status(inputs, tmp_path, monkeypatch, code, argv):
    monkeypatch.delenv("EMBED_ENDPOINT", raising=False)
    assert_exit(run_child(*(arg.format(tmp=tmp_path, **inputs) for arg in argv), cli=True), code)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["validate-a-directory", "run-out-dir-a-file", "index-out-a-directory"])
def test_a_path_that_cannot_be_read_or_written_is_usage_error(inputs, tmp_path, case):
    dialogue = str(inputs["dialogue"])
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_text("kept")
    argv = {
        "validate-a-directory": ["validate", str(tmp_path / "a-dir")],
        "run-out-dir-a-file": ["run", "--dialogue", dialogue, "--out-dir", str(tmp_path / "a-file")],
        "index-out-a-directory": ["index", dialogue, "--out", str(tmp_path / "a-dir")],
    }[case]
    assert_exit(run_child(*argv, cli=True), 2)
    assert (tmp_path / "a-file").read_text() == "kept"
