"""The CLI as a separate process: the checks that only a process shows.

tests/test_cli.py holds every other check of the CLI contract, through
cli.main in-process. Here the `emocause` script runs in a child process, or
`python -m emocause.cli` where no script is on PATH (conftest.child),
to check that main's return value becomes the process's exit status, that
a refusal reaches stderr as one `error:` line, not a traceback, that a
reader closing a real pipe on stdout early leaves the command's own exit
status, and that an offline run loads no networking module.
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
    """gen --seed 1's dialogue and gold, the same dialogue with 4-component
    emotion vectors, and a malformed JSON file."""
    root = tmp_path_factory.mktemp("console")
    dialogue = root / "d.dialogue.json"
    assert main(["gen", "--seed", "1", "--out-prefix", str(root / "d")]) == 0
    doc = json.loads(dialogue.read_text())
    for audio in doc["audio"]:
        audio["emotion"] = [0.25] * 4
    (root / "short.json").write_text(json.dumps(doc))
    (root / "bad.json").write_text("{nope")
    return {"dialogue": dialogue, "gold": root / "d.gold.json", "short": root / "short.json",
            "bad": root / "bad.json"}


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


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Seeds 1-4 at 200 turns indexed into one KB, and the four dialogues
    again as JSONL with 4-component emotion vectors, which validate reports
    in about 130 kB."""
    root = tmp_path_factory.mktemp("corpus")
    for seed in range(1, 5):
        assert main(["gen", "--seed", str(seed), "--turns", "200", "--out-prefix", str(root / str(seed))]) == 0
    dialogues = [root / f"{seed}.dialogue.json" for seed in range(1, 5)]
    assert main(["index", *map(str, dialogues), "--out", str(root / "kb.cmkb")]) == 0
    docs = [json.loads(path.read_text()) for path in dialogues]
    for audio in (a for doc in docs for a in doc["audio"]):
        audio["emotion"] = [0.25] * 4
    (root / "bad.jsonl").write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    return {"dialogue": dialogues[0], "kb": root / "kb.cmkb", "bad": root / "bad.jsonl"}


@pytest.mark.parametrize("code, argv", [
    (0, ["retrieve", "--kb", "{kb}", "--dialogue", "{dialogue}", "--window", "3", "--top-n", "999"]),
    (1, ["validate", "{bad}"]),
], ids=["retrieve-0", "validate-1"])
def test_a_reader_that_closes_stdout_early_leaves_the_exit_status(corpus, code, argv):
    """retrieve ... | head -c 10 and validate bad.jsonl | head -c 10, each
    printing far more than a pipe holds."""
    argv, env = child(*(arg.format(**corpus) for arg in argv), cli=True)
    for _ in range(10):
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(10)) == 10
            proc.stdout.close()
            stderr = proc.stderr.read()
        assert (proc.returncode, stderr) == (code, b"")


def test_an_offline_run_loads_no_networking_module(inputs, tmp_path):
    modules = ("http.client", "ssl", "socket", "requests", "urllib3")
    code = ("import sys; from emocause.cli import main; "
            "code = main(['run', '--dialogue', sys.argv[1], '--gold', sys.argv[2], '--out-dir', sys.argv[3]]); "
            f"print([m for m in {modules!r} if m in sys.modules]); sys.exit(code)")
    proc = run_child("-c", code, str(inputs["dialogue"]), str(inputs["gold"]), str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
