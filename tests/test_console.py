"""The CLI as a separate process: the checks that only a process shows.

tests/test_cli.py holds every other check of the CLI contract, through
cli.main in-process. Here the `emocause` script runs in a child process, or
`python -m emocause.cli` where no script is on PATH (conftest.child),
to check that main's return value becomes the process's exit status, that
a refusal reaches stderr as one `error:` line, not a traceback, and that a
reader closing a real pipe on stdout early ends the command with exit 0.
"""

from __future__ import annotations

import json
import re
import subprocess

import pytest

from emocause.cli import main

from conftest import child, run_child


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


def test_a_reader_that_closes_stdout_early_leaves_exit_0(tmp_path):
    """retrieve ... | head -c 10, where retrieve prints far more than a pipe holds."""
    for seed in range(1, 5):
        assert main(["gen", "--seed", str(seed), "--turns", "200", "--out-prefix", str(tmp_path / str(seed))]) == 0
    dialogues, kb = [str(tmp_path / f"{seed}.dialogue.json") for seed in range(1, 5)], str(tmp_path / "kb.cmkb")
    assert main(["index", *dialogues, "--out", kb]) == 0
    argv, env = child("retrieve", "--kb", kb, "--dialogue", dialogues[0], "--window", "3", "--top-n", "999",
                      cli=True)
    for _ in range(10):
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            stderr = proc.stderr.read()
        assert (proc.returncode, stderr) == (0, b"")
