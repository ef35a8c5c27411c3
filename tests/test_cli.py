"""Subcommand behavior and exit codes, driven through cli.main in-process.

Every check of the CLI contract lives here except those that need a process
of its own (tests/test_console.py): that main's return value becomes the
exit status of the `emocause` script, a refusal one stderr line without a
traceback, and that an offline run loads no networking module.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
import shutil
import struct
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emocause.cli import main
from emocause.kb import _pack_section, read_kb, write_kb
from emocause.model import ScoringConfig, dumps_canonical
from emocause.pipeline import sha256_file

from conftest import serve_offline_providers


def digest(manifest_path):
    """The prompt_sha256 of a manifest's extract stage."""
    stages = json.loads(manifest_path.read_text())["stages"]
    return next(stage["prompt_sha256"] for stage in stages if stage["name"] == "extract")


@pytest.fixture
def generated(tmp_path):
    code = main(["gen", "--seed", "7", "--turns", "80", "--chain-length", "4",
                 "--out-prefix", str(tmp_path / "demo")])
    assert code == 0
    return tmp_path, tmp_path / "demo.dialogue.json", tmp_path / "demo.gold.json"


def test_gen_writes_both_files(generated):
    tmp, dialogue_path, gold_path = generated
    assert dialogue_path.exists() and gold_path.exists()
    doc = json.loads(dialogue_path.read_text())
    assert len(doc["utterances"]) == 80


def test_gen_is_reproducible(tmp_path):
    main(["gen", "--seed", "9", "--turns", "20", "--chain-length", "1",
          "--out-prefix", str(tmp_path / "a")])
    main(["gen", "--seed", "9", "--turns", "20", "--chain-length", "1",
          "--out-prefix", str(tmp_path / "b")])
    assert (tmp_path / "a.dialogue.json").read_bytes() == (tmp_path / "b.dialogue.json").read_bytes()
    assert (tmp_path / "a.gold.json").read_bytes() == (tmp_path / "b.gold.json").read_bytes()


def test_gen_infeasible_spec_usage_error(tmp_path):
    assert main(["gen", "--seed", "1", "--turns", "10", "--chain-length", "8",
                 "--out-prefix", str(tmp_path / "x")]) == 2


def test_validate_clean_and_broken(generated, tmp_path, capsys):
    _, dialogue_path, _ = generated
    assert main(["validate", str(dialogue_path)]) == 0
    doc = json.loads(dialogue_path.read_text())
    doc["utterances"][3]["t_end"] = doc["utterances"][3]["t_start"]
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["validate", str(broken)]) == 1
    out = capsys.readouterr().out
    assert "utterances[3]" in out


@pytest.mark.parametrize("records, short", [(range(80), [0.25] * 4), ([0], [0.5, 0.5])],
                         ids=["every-record", "first-record"])
def test_emotion_vector_of_the_wrong_length_is_a_validation_error(generated, tmp_path, capsys,
                                                                   records, short):
    tmp, dialogue_path, _ = generated
    doc = json.loads(dialogue_path.read_text())
    for i in records:
        doc["audio"][i]["emotion"] = short
    broken = tmp_path / "short.json"
    broken.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["validate", str(broken)]) == 1
    errors = [line for line in capsys.readouterr().out.splitlines() if line.startswith("ERROR")]
    assert [line.split()[1] for line in errors] == [f"audio[{i}].emotion:" for i in records]
    assert f"has {len(short)} components, expected one per category: happy, sad," in errors[0]
    assert main(["run", "--dialogue", str(broken), "--out-dir", str(tmp / "out")]) == 1
    err = capsys.readouterr().err
    assert "audio[0].emotion: emotion vector has" in err
    # run quotes the first 5 errors, where validate printed every one
    assert len(err.encode()) < 2000 and ("; and 75 more" in err) == (len(records) == 80)
    assert not (tmp / "out").exists()


def test_validate_malformed_json_is_format_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", str(bad)]) == 4


@pytest.mark.parametrize("corpus", ["dialogue", "two-dialogue-jsonl"])
def test_index_and_retrieve(generated, capsys, corpus):
    tmp, dialogue_path, _ = generated
    kb_path, source, count = tmp / "kb.cmkb", dialogue_path, 1
    if corpus == "two-dialogue-jsonl":
        source, count = _two_dialogue_jsonl(tmp, dialogue_path), 2
    capsys.readouterr()
    assert main(["index", str(source), "--out", str(kb_path)]) == 0
    assert f"from {count} dialogue(s) -> {kb_path}" in capsys.readouterr().out
    assert kb_path.exists() and Path(f"{kb_path}.manifest.json").exists()
    assert main(["retrieve", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
                 "--window", "3", "--top-n", "2"]) == 0
    assert re.findall(r"^(#\d+) similarity=", capsys.readouterr().out, re.M) == ["#1", "#2"]


def test_retrieve_top_n_beyond_kb_prints_all(generated, capsys):
    tmp, dialogue_path, _ = generated
    kb_path = tmp / "kb.cmkb"
    main(["index", str(dialogue_path), "--out", str(kb_path)])
    capsys.readouterr()
    assert main(["retrieve", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
                 "--window", "0", "--top-n", "999"]) == 0
    out = capsys.readouterr().out
    assert out.count("similarity=") == 14  # 15 windows minus the query itself


@pytest.mark.parametrize("window", ["15", "99", "-1"])
def test_retrieve_missing_window_is_format_error(generated, capsys, window):
    tmp, dialogue_path, _ = generated
    kb_path = tmp / "kb.cmkb"
    main(["index", str(dialogue_path), "--out", str(kb_path)])
    capsys.readouterr()
    assert main(["retrieve", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
                 "--window", window]) == 4
    captured = capsys.readouterr()
    assert f"window {window} of dialogue 'synth-00000007' is not in the index" in captured.err
    assert captured.out == ""


def test_extract_graph_eval_flow(generated, capsys):
    tmp, dialogue_path, gold_path = generated
    kb_path, sx_path = tmp / "kb.cmkb", tmp / "sx.json"
    graph_path, report_path = tmp / "g.json", tmp / "report.json"
    assert main(["index", str(dialogue_path), "--out", str(kb_path)]) == 0
    assert main(["extract", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
                 "--provider", "mock", "--out", str(sx_path)]) == 0
    doc = json.loads(sx_path.read_text())
    assert len(doc["sextuplets"]) == 5
    assert main(["graph", "--sextuplets", str(sx_path), "--out", str(graph_path)]) == 0
    assert main(["eval", "--predicted", str(graph_path), "--gold", str(gold_path),
                 "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert report["causal_correctness"] == 1.0
    assert report["causal_chain_score"] == 1.0


def test_eval_reports_the_gold_links_a_graph_misses(tmp_path, capsys):
    """All 6 planted links are found; cut to its heaviest edge, the graph
    keeps precision 1.0 and reads recall 1/6; with no edge, recall 0."""
    prefix, out = tmp_path / "demo", tmp_path / "out"
    assert main(["gen", "--seed", "1", "--chain-length", "6", "--out-prefix", str(prefix)]) == 0
    gold_path = f"{prefix}.gold.json"
    assert main(["run", "--dialogue", f"{prefix}.dialogue.json", "--gold", gold_path,
                 "--out-dir", str(out)]) == 0
    assert json.loads((out / "report.json").read_text())["causal_recall"] == 1.0
    doc = json.loads((out / "graph.json").read_text())
    for edges, expected in (
        ([max(doc["edges"], key=lambda e: e["weight"])],
         {"causal_correctness": "1.0000", "causal_recall": "0.1667", "causal_f1": "0.2857"}),
        ([], {"causal_correctness": "0.0000", "causal_recall": "0.0000", "causal_f1": "0.0000"}),
    ):
        cut = tmp_path / "cut.json"
        cut.write_text(json.dumps({**doc, "edges": edges}))
        capsys.readouterr()
        assert main(["eval", "--predicted", str(cut), "--gold", gold_path]) == 0
        rows = dict(line.split() for line in capsys.readouterr().out.splitlines())
        assert {name: rows[name] for name in expected} == expected
        assert rows["counts[gold_links]"] == "6"


def test_extract_rejects_kb_windows_beyond_the_dialogue(generated, tmp_path, capsys):
    tmp, dialogue_path, _ = generated
    kb_path = tmp / "kb.cmkb"
    assert main(["index", str(dialogue_path), "--out", str(kb_path)]) == 0
    doc = json.loads(dialogue_path.read_text())
    doc["utterances"], doc["audio"] = doc["utterances"][:20], doc["audio"][:20]
    short = tmp_path / "short.json"
    short.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["extract", "--kb", str(kb_path), "--dialogue", str(short),
                 "--out", str(tmp / "sx.json")]) == 4
    err = capsys.readouterr().err
    assert "error: window 3: does not match dialogue 'synth-00000007' (20 utterances)" in err


@pytest.mark.parametrize("command", ["extract", "retrieve"])
def test_extract_refuses_a_kb_of_other_utterances_under_the_same_id(generated, capsys, command):
    tmp, dialogue_path, _ = generated
    kb_path, out = tmp / "kb.cmkb", tmp / "sx.json"
    assert main(["index", str(dialogue_path), "--out", str(kb_path)]) == 0
    assert main(["gen", "--seed", "8", "--turns", "80", "--chain-length", "4",
                 "--out-prefix", str(tmp / "other")]) == 0
    doc = json.loads((tmp / "other.dialogue.json").read_text())
    doc["id"] = "synth-00000007"
    renamed = tmp / "renamed.json"
    renamed.write_text(json.dumps(doc))
    argv = {"extract": ["extract", "--kb", str(kb_path), "--dialogue", str(renamed), "--out", str(out)],
            "retrieve": ["retrieve", "--kb", str(kb_path), "--dialogue", str(renamed), "--window", "0"]}
    capsys.readouterr()
    assert main(argv[command]) == 4
    captured = capsys.readouterr()
    assert "error: window 0: does not match dialogue 'synth-00000007'" in captured.err
    assert captured.err.rstrip().endswith("re-index the dialogue")
    assert captured.out == ""
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


@pytest.mark.parametrize("command", ["extract", "retrieve"])
def test_a_kb_with_two_windows_swapped_is_format_error(generated, capsys, command):
    tmp, dialogue_path, _ = generated
    kb_path, out = tmp / "kb.cmkb", tmp / "sx.json"
    assert main(["index", str(dialogue_path), "--out", str(kb_path)]) == 0
    kb = read_kb(kb_path)
    order = [1, 0, *range(2, kb.meta.entry_count)]
    write_kb(replace(kb, windows=[kb.windows[i] for i in order], vectors=kb.vectors[order]), kb_path)
    argv = {"extract": ["extract", "--kb", str(kb_path), "--dialogue", str(dialogue_path), "--out", str(out)],
            "retrieve": ["retrieve", "--kb", str(kb_path), "--dialogue", str(dialogue_path), "--window", "0"]}
    capsys.readouterr()
    assert main(argv[command]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"error: {kb_path}: window ('synth-00000007', 0) is stored after window ('synth-00000007', 1)"
    )
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "meta, message",
    [
        ({"window_size": 1}, "window_size must be >= 2, got 1"),
        ({"stride": 0}, "stride must be >= 1, got 0"),
        ({"stride": 11}, "stride (11) must not exceed window_size (10)"),
        ({"text_dim": 65, "emotion_dim": 7}, "text_dim must be >= 1 and emotion_dim 8, got 65 and 7"),
        ({"text_dim": -9}, "text_dim must be >= 1 and emotion_dim 8, got -9 and 8"),
        ({"text_dim": 0, "emotion_dim": 0}, "text_dim must be >= 1 and emotion_dim 8, got 0 and 0"),
    ],
    ids=["window-size", "stride", "stride-beyond-window", "emotion-dim-7", "text-dim-negative",
         "both-dims-0"],
)
@pytest.mark.parametrize("command", ["extract", "retrieve"])
def test_a_kb_meta_that_build_windows_refuses_is_format_error(generated, capsys, meta, message, command):
    tmp, dialogue_path, _ = generated
    kb_path, out = tmp / "kb.cmkb", tmp / "sx.json"
    assert main(["index", str(dialogue_path), "--out", str(kb_path)]) == 0
    kb = read_kb(kb_path)
    crafted = replace(kb.meta, **meta)
    # the vector section has the size the crafted meta implies, so only the meta is at fault
    write_kb(replace(kb, meta=crafted, vectors=kb.vectors[:, : crafted.fused_dim]), kb_path)
    capsys.readouterr()
    argv = {"extract": ["extract", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
                        "--out", str(out)],
            "retrieve": ["retrieve", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
                         "--window", "0"]}[command]
    assert main(argv) == 4
    assert capsys.readouterr().err.startswith(f"error: {kb_path}: corrupt metadata: meta: {message}")
    assert not out.exists()


def test_graph_dot_output(generated):
    tmp, dialogue_path, _ = generated
    kb_path, sx_path, dot_path = tmp / "kb.cmkb", tmp / "sx.json", tmp / "g.dot"
    main(["index", str(dialogue_path), "--out", str(kb_path)])
    main(["extract", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
          "--out", str(sx_path)])
    assert main(["graph", "--sextuplets", str(sx_path), "--out", str(dot_path)]) == 0
    assert dot_path.read_text().startswith("digraph G {")


def test_graph_rejects_bad_weights(generated):
    tmp, dialogue_path, _ = generated
    kb_path, sx_path = tmp / "kb.cmkb", tmp / "sx.json"
    main(["index", str(dialogue_path), "--out", str(kb_path)])
    main(["extract", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
          "--out", str(sx_path)])
    code = main(["graph", "--sextuplets", str(sx_path), "--out", str(tmp / "g2.json"),
                 "--alpha", "0.5", "--beta", "0.5", "--gamma", "0.5"])
    assert code == 2


def test_eval_requires_embedded_sextuplets(generated, tmp_path):
    _, _, gold_path = generated
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"vertices": [], "edges": []}))
    assert main(["eval", "--predicted", str(bare), "--gold", str(gold_path)]) == 4


def test_eval_accepts_triplet_gold(generated, tmp_path, capsys):
    tmp, dialogue_path, _ = generated
    kb_path, sx_path, graph_path = tmp / "kb.cmkb", tmp / "sx.json", tmp / "g.json"
    main(["index", str(dialogue_path), "--out", str(kb_path)])
    main(["extract", "--kb", str(kb_path), "--dialogue", str(dialogue_path), "--out", str(sx_path)])
    main(["graph", "--sextuplets", str(sx_path), "--out", str(graph_path)])
    triplet_gold = tmp_path / "triplet.json"
    triplet_gold.write_text(json.dumps([{
        "doc_id": "synth-00000007",
        "triplets": [[0, 1, 0, 1, 0, 1, "neg", "Voltify", "pricing", "negative"]],
    }]))
    capsys.readouterr()
    assert main(["eval", "--predicted", str(graph_path), "--gold", str(triplet_gold)]) == 0
    out = capsys.readouterr().out
    assert "span_f1[sentiment]" in out and "pair_f1[A-O]" in out
    for omitted in ("span_f1[holder]", "span_f1[rationale]", "causal_", "counts["):
        assert omitted not in out


def _as_triplet_gold(gold_path, path, doc_id):
    """The events of a native gold file, written to path as one triplet document
    of DiaASQ rows under doc_id (span indices 0, the polarity "pos", "neg" or "neu")."""
    events = json.loads(gold_path.read_text())["sextuplets"]
    path.write_text(json.dumps({"doc_id": doc_id, "triplets": [
        [0] * 6 + [event["sentiment"][:3], event["target"], event.get("aspect", ""), event["opinion"]]
        for event in events
    ]}))
    return path


@pytest.mark.parametrize("triplet, message", [
    ({"target": "Voltify", "aspect": "pricing", "opinion": "negative", "polarity": "neg"},
     "triplets[1]: expected a DiaASQ triplet row of 10 columns"),
    ([0, 1, 0, 1, 0, 1, "mixed", "Voltify", "pricing", "negative"], "triplets[1]: unrecognized polarity 'mixed'"),
], ids=["keyed-entry", "unknown-polarity"])
def test_eval_refuses_a_triplet_that_is_not_a_diaasq_row(generated, capsys, triplet, message):
    tmp, dialogue_path, _ = generated
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out")]) == 0
    gold, report = tmp / "triplet.json", tmp / "report.json"
    gold.write_text(json.dumps({"doc_id": "synth-00000007", "triplets": [
        [0, 1, 0, 1, 0, 1, "neg", "Voltify", "pricing", "negative"], triplet]}))
    capsys.readouterr()
    assert main(["eval", "--predicted", str(tmp / "out" / "graph.json"), "--gold", str(gold),
                 "--out", str(report)]) == 4
    assert capsys.readouterr().err == f"error: {gold}: {message}\n"
    assert not report.exists() and not Path(f"{report}.manifest.json").exists()


def test_eval_refuses_a_triplet_gold_of_another_dialogue(generated, capsys):
    tmp, dialogue_path, gold_path = generated
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out")]) == 0
    foreign = _as_triplet_gold(gold_path, tmp / "foreign.json", "some-other-doc")
    report = tmp / "report.json"
    capsys.readouterr()
    assert main(["eval", "--predicted", str(tmp / "out" / "graph.json"), "--gold", str(foreign),
                 "--out", str(report)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {foreign}: gold: no gold annotation for dialogue 'synth-00000007'")
    assert not report.exists() and not Path(f"{report}.manifest.json").exists()
    # with the dialogue's own id the same events score
    own = _as_triplet_gold(gold_path, tmp / "own.json", "synth-00000007")
    assert main(["eval", "--predicted", str(tmp / "out" / "graph.json"), "--gold", str(own),
                 "--out", str(report)]) == 0
    assert set(json.loads(report.read_text())) == {"span_f1", "pair_f1"}


@pytest.mark.parametrize("layout", ["one-element-array", "jsonl-after-another-dialogue"])
def test_a_native_gold_in_any_layout_scores_as_the_bare_document(generated, layout):
    tmp, dialogue_path, gold_path = generated
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out")]) == 0
    doc = json.loads(gold_path.read_text())
    wrapped = tmp / "wrapped.gold.json"
    if layout == "one-element-array":
        wrapped.write_text(json.dumps([doc]))
    else:
        wrapped.write_text(f"{json.dumps({**doc, 'dialogue_id': 'another'})}\n{json.dumps(doc)}\n")
    reports = []
    for path in (gold_path, wrapped):
        reports.append(tmp / f"{path.stem}.report.json")
        assert main(["eval", "--predicted", str(tmp / "out" / "graph.json"), "--gold", str(path),
                     "--out", str(reports[-1])]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()


def test_gold_of_another_dialogue_is_format_error(generated, capsys):
    tmp, dialogue_path, _ = generated
    assert main(["gen", "--seed", "8", "--out-prefix", str(tmp / "other")]) == 0
    other_gold = tmp / "other.gold.json"
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out")]) == 0
    capsys.readouterr()
    assert main(["eval", "--predicted", str(tmp / "out" / "graph.json"),
                 "--gold", str(other_gold)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {other_gold}: gold: no gold annotation")
    assert "'synth-00000007'" in err and "'synth-00000008'" in err
    assert main(["run", "--dialogue", str(dialogue_path), "--gold", str(other_gold),
                 "--out-dir", str(tmp / "out2")]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: {other_gold}: gold: no gold annotation") and "'synth-00000008'" in err


@pytest.mark.parametrize("gold, message", [
    ("malformed", "Expecting value"),
    ("other-dialogue", "no gold annotation for dialogue 'synth-00000007'"),
    ("triplet-of-another-dialogue",
     "no gold annotation for dialogue 'synth-00000007' among 'some-other-doc'"),
    ("repeated-id", "[1].dialogue_id: repeats dialogue id 'synth-00000007'"),
], ids=["malformed", "other-dialogue", "triplet-of-another-dialogue", "repeated-id"])
def test_run_refused_for_its_gold_writes_nothing(generated, capsys, gold, message):
    tmp, dialogue_path, own_gold = generated
    gold_path = tmp / "other.gold.json"
    if gold == "malformed":
        gold_path.write_text('{"dialogue_id": ')
    elif gold == "other-dialogue":
        assert main(["gen", "--seed", "8", "--out-prefix", str(tmp / "other")]) == 0
    elif gold == "triplet-of-another-dialogue":
        _as_triplet_gold(own_gold, gold_path, "some-other-doc")
    else:
        gold_path.write_text(f"[{own_gold.read_text()}, {own_gold.read_text()}]")
    capsys.readouterr()
    assert main(["run", "--dialogue", str(dialogue_path), "--gold", str(gold_path),
                 "--out-dir", str(tmp / "out")]) == 4
    assert message in capsys.readouterr().err
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("command", ["retrieve", "extract"])
def test_kb_with_a_nan_vector_component_is_format_error(generated, capsys, command):
    tmp, dialogue_path, _ = generated
    kb_path = tmp / "kb.cmkb"
    assert main(["index", str(dialogue_path), "--out", str(kb_path)]) == 0
    kb = read_kb(kb_path)
    vectors = kb.vectors.copy()
    vectors[1, 0] = float("nan")
    write_kb(replace(kb, vectors=vectors), kb_path)
    capsys.readouterr()
    argv = {"retrieve": ["retrieve", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
                         "--window", "0"],
            "extract": ["extract", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
                        "--out", str(tmp / "sx.json")]}[command]
    assert main(argv) == 4
    assert "vectors[1] holds a NaN or infinite component" in capsys.readouterr().err
    assert not (tmp / "sx.json").exists()


@pytest.mark.parametrize("damage", ["entry-count", "vector-columns"])
def test_kb_whose_sections_disagree_is_format_error(generated, capsys, damage):
    tmp, dialogue_path, _ = generated
    kb_path = tmp / "kb.cmkb"
    assert main(["index", str(dialogue_path), "--out", str(kb_path)]) == 0
    kb = read_kb(kb_path)
    n, width = kb.vectors.shape
    if damage == "entry-count":
        write_kb(replace(kb, meta=replace(kb.meta, entry_count=n + 1)), kb_path)
        message = f"window count {n} disagrees with entry_count {n + 1}"
    else:
        write_kb(replace(kb, vectors=kb.vectors[:, :-1]), kb_path)
        message = f"vector section is {n * (width - 1) * 8} bytes, expected {n * width * 8}"
    capsys.readouterr()
    assert main(["extract", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
                 "--out", str(tmp / "sx.json")]) == 4
    assert capsys.readouterr().err == f"error: {kb_path}: {message}\n"
    assert not (tmp / "sx.json").exists()


@pytest.mark.parametrize("command", ["retrieve", "extract"])
def test_truncated_kb_is_format_error_named_by_its_file(generated, capsys, command):
    tmp, dialogue_path, _ = generated
    kb_path, trunc = tmp / "kb.cmkb", tmp / "trunc.cmkb"
    assert main(["index", str(dialogue_path), "--out", str(kb_path)]) == 0
    trunc.write_bytes(kb_path.read_bytes()[:100])
    capsys.readouterr()
    argv = {"retrieve": ["retrieve", "--kb", str(trunc), "--dialogue", str(dialogue_path),
                         "--window", "0"],
            "extract": ["extract", "--kb", str(trunc), "--dialogue", str(dialogue_path),
                        "--out", str(tmp / "sx.json")]}[command]
    assert main(argv) == 4
    assert capsys.readouterr().err == f"error: {trunc}: truncated file while reading meta\n"


@pytest.mark.parametrize("p", [1.5, float("nan")])
def test_nli_probability_outside_the_unit_interval_exits_4_naming_the_pair(
    generated, capsys, monkeypatch, p
):
    tmp, dialogue_path, _ = generated
    monkeypatch.setattr("emocause.graph.JaccardNli.entailment_probability", lambda self, a, b: p)
    capsys.readouterr()
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: scoring failed for pair (")
    assert f"entailment probability {p!r} is outside [0, 1]" in err


def test_extract_and_run_record_the_same_prompt_digest(generated, http_stub, monkeypatch):
    tmp, dialogue_path, _ = generated
    kb, sx = tmp / "kb.cmkb", tmp / "sx.json"
    assert main(["index", str(dialogue_path), "--out", str(kb)]) == 0
    assert main(["extract", "--kb", str(kb), "--dialogue", str(dialogue_path), "--out", str(sx)]) == 0
    serve_offline_providers(http_stub, monkeypatch)
    # the remote extractor's calls overlap; the stub answers as MockExtractor would
    for run, providers in (("local", []), ("overlapping", ["--provider", "remote:glm"])):
        assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / run),
                     *providers]) == 0

    extracted = digest(Path(f"{sx}.manifest.json"))
    assert len(extracted) == 64
    assert digest(tmp / "local" / "manifest.json") == extracted
    assert digest(tmp / "overlapping" / "manifest.json") == extracted


@pytest.mark.parametrize("option, spec, code", [
    ("--embedder", "foo", 2), ("--embedder", "remote:m", 2), ("--embedder", "hash:x", 2),
    ("--embedder", "remote:m:0", 2), ("--embedder", "remote:m:-4", 2), ("--embedder", "remote::64", 2),
    ("--embedder", "hash:64:0:junk", 2), ("--provider", "remote:", 2),
    ("--embedder", "remote:m:8", 3), ("--embedder", "remote:nomic-embed-text:latest:768", 3),
])
def test_embedder_spec_errors_are_usage_errors_and_a_missing_endpoint_a_provider_error(
    generated, monkeypatch, option, spec, code
):
    """A spec is refused (exit 2) as it is parsed, before any endpoint is
    resolved: with none configured, resolving one exits 3."""
    tmp, dialogue_path, _ = generated
    for var in ("EMBED_ENDPOINT", "LLM_ENDPOINT"):
        monkeypatch.delenv(var, raising=False)
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out"),
                 option, spec]) == code
    assert not (tmp / "out").exists()


@pytest.mark.parametrize("command", ["extract", "graph", "eval"])
def test_config_with_a_stride_beyond_the_window_is_usage_error(generated, tmp_path, capsys, command):
    tmp, dialogue_path, gold_path = generated
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out")]) == 0
    out = tmp / "out"
    config = tmp_path / "stride.json"
    config.write_text(json.dumps({"window_size": 4, "stride": 5}))
    argv = {
        "extract": ["--kb", str(out / "kb.cmkb"), "--dialogue", str(dialogue_path),
                    "--out", str(tmp_path / "sx.json")],
        "graph": ["--sextuplets", str(out / "sextuplets.json"), "--out", str(tmp_path / "g.json")],
        "eval": ["--predicted", str(out / "graph.json"), "--gold", str(gold_path)],
    }[command]
    capsys.readouterr()
    assert main([command, *argv, "--config", str(config)]) == 2
    assert "stride (5) must not exceed window_size (4)" in capsys.readouterr().err


def test_run_end_to_end(generated, capsys):
    tmp, dialogue_path, gold_path = generated
    code = main(["run", "--dialogue", str(dialogue_path), "--gold", str(gold_path),
                 "--out-dir", str(tmp / "out"), "--provider", "mock"])
    assert code == 0
    out = capsys.readouterr().out
    assert "causal_correctness        1.0000" in out
    manifest = json.loads((tmp / "out" / "manifest.json").read_text())
    assert set(manifest["outputs"]) >= {
        str(tmp / "out" / "sextuplets.json"),
        str(tmp / "out" / "graph.json"),
        str(tmp / "out" / "report.json"),
    }


def test_config_file_and_flag_precedence(generated, tmp_path):
    tmp, dialogue_path, gold_path = generated
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"edge_threshold": 0.9, "tau": 45.0}))
    out_dir = tmp / "outcfg"
    code = main(["run", "--dialogue", str(dialogue_path), "--gold", str(gold_path),
                 "--out-dir", str(out_dir), "--config", str(config_path),
                 "--threshold", "0.5"])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config"]["tau"] == 45.0           # from file
    assert manifest["config"]["edge_threshold"] == 0.5  # flag wins over file


def test_unknown_config_key_is_usage_error(generated, tmp_path):
    tmp, dialogue_path, _ = generated
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"edge_treshold": 0.9}))
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "x"),
                 "--config", str(config_path)]) == 2


@pytest.mark.parametrize("config", [
    {"tau": "30"},
    {"max_gap": "x"},
    {"top_n": 2.5},
    {"window_size": 10.0},
    {"edge_threshold": True},
    {"normalize_scores": "no"},
], ids=["tau-str", "max_gap-str", "top_n-float", "window_size-float", "threshold-bool",
        "normalize-str"])
def test_config_value_of_wrong_type_is_usage_error(generated, tmp_path, capsys, config):
    tmp, dialogue_path, _ = generated
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "x"),
                 "--config", str(config_path)]) == 2
    [name] = config
    assert f"error: {name}=" in capsys.readouterr().err
    assert not (tmp / "x").exists()


def test_non_finite_number_in_a_dialogue_is_format_error(generated, tmp_path, capsys):
    tmp, dialogue_path, _ = generated
    doc = json.loads(dialogue_path.read_text())
    doc["audio"][3]["emotion"][0] = float("nan")
    bad = tmp_path / "nan.dialogue.json"
    bad.write_text(json.dumps(doc))
    assert main(["validate", str(bad)]) == 4
    assert main(["run", "--dialogue", str(bad), "--out-dir", str(tmp / "nan")]) == 4
    assert "audio[3].emotion[0]" in capsys.readouterr().err
    assert not (tmp / "nan").exists()


@pytest.mark.parametrize("flags", [["--tau", "inf"], ["--max-gap", "inf"], ["--rate-scale", "nan"]])
def test_non_finite_scoring_flag_is_usage_error(generated, capsys, flags):
    tmp, dialogue_path, _ = generated
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "x"), *flags]) == 2
    assert "must be a finite number" in capsys.readouterr().err
    assert not (tmp / "x").exists()


@pytest.mark.parametrize("config, message", [
    ({"rate_scale": 0}, "rate_scale=0 must be > 0"),
    ({"rate_scale": -1.5}, "rate_scale=-1.5 must be > 0"),
    ({"max_gap": 0.0}, "max_gap=0.0 must be > 0 or None"),
    ({"max_gap": -2}, "max_gap=-2 must be > 0 or None"),
], ids=["rate-scale-0", "rate-scale-negative", "max-gap-0", "max-gap-negative"])
def test_config_rate_scale_or_max_gap_not_above_zero_is_usage_error(generated, tmp_path, capsys,
                                                                     config, message):
    tmp, dialogue_path, _ = generated
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config))
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "x"),
                 "--config", str(config_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp / "x").exists()


def test_run_raw_scores_records_unnormalized_scores_in_the_manifest(generated):
    tmp, dialogue_path, _ = generated
    for flags, normalized in (([], True), (["--raw-scores"], False)):
        out = tmp / f"out-{normalized}"
        assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(out), *flags]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["normalize_scores"] is normalized


@pytest.mark.parametrize("value", [5, -0.5, 1.5])
def test_consistency_floor_outside_unit_range_is_usage_error(generated, tmp_path, capsys, value):
    tmp, dialogue_path, _ = generated
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"consistency_floor": value}))
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "x"),
                 "--config", str(config_path)]) == 2
    assert f"error: consistency_floor={value!r} outside [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"{nope", "Expecting property name"),
    (b'{"id": "caf\xe9"}', "input is not valid UTF-8"),
    (b'{"t_start": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
    (b"[" * 100_000 + b"]" * 100_000, "input is nested too deeply"),
], ids=["malformed", "not-utf8", "5000-digit-integer", "nested-100000-deep"])
@pytest.mark.parametrize("command", [
    ["validate", "{bad}"],
    ["index", "{bad}", "--out", "{tmp}/k.cmkb"],
    ["eval", "--predicted", "{bad}", "--gold", "{gold}"],
    ["eval", "--predicted", "{empty_graph}", "--gold", "{bad}"],
    ["graph", "--sextuplets", "{bad}", "--out", "{tmp}/g.json"],
    ["run", "--dialogue", "{dialogue}", "--out-dir", "{tmp}/out", "--gold", "{bad}"],
    ["run", "--dialogue", "{dialogue}", "--out-dir", "{tmp}/out", "--config", "{bad}"],
], ids=["validate", "index", "eval-predicted", "eval-gold", "graph-sextuplets", "run-gold",
        "run-config"])
def test_malformed_json_input_is_format_error(generated, tmp_path, capsys, command, content, message):
    tmp, dialogue_path, gold_path = generated
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    empty_graph = tmp_path / "empty-graph.json"
    empty_graph.write_text('{"dialogue_id": "x", "vertices": [], "edges": [], "sextuplets": []}')
    paths = {"bad": bad, "gold": gold_path, "dialogue": dialogue_path, "tmp": tmp,
             "empty_graph": empty_graph}
    assert main([arg.format(**paths) for arg in command]) == 4
    # the error names the file once, and a refused run writes nothing
    assert f"error: {bad}: {message}" in capsys.readouterr().err
    assert not (tmp / "out").exists()


def test_eval_predicted_array_is_format_error(generated, tmp_path, capsys):
    _, _, gold_path = generated
    predicted = tmp_path / "array.json"
    predicted.write_text("[]")
    assert main(["eval", "--predicted", str(predicted), "--gold", str(gold_path)]) == 4
    assert "expected object, got list" in capsys.readouterr().err


def test_eval_edge_without_effect_names_the_field(generated, capsys):
    tmp, dialogue_path, gold_path = generated
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out")]) == 0
    graph_path = tmp / "out" / "graph.json"
    doc = json.loads(graph_path.read_text())
    del doc["edges"][0]["effect"]
    graph_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--predicted", str(graph_path), "--gold", str(gold_path)]) == 4
    assert "edges[0].effect: missing required field" in capsys.readouterr().err


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda doc: doc["edges"][0].update(cause="ghost"), "edges[0].cause: 'ghost'"),
        (lambda doc: doc["edges"][0].update(effect="ghost"), "edges[0].effect: 'ghost'"),
        (lambda doc: doc["vertices"].insert(0, "ghost"), "vertices[0]: 'ghost' is not an embedded"),
        (lambda doc: doc["edges"].append(doc["edges"][-1]), "edges[4]: repeats edge"),
        (lambda doc: doc["vertices"].append(doc["vertices"][0]), "vertices[5]: repeats vertex"),
        (lambda doc: doc.pop("edges"), "graph.json: edges: missing required field"),
        (lambda doc: doc.pop("vertices"), "graph.json: vertices: missing required field"),
    ],
    ids=["cause", "effect", "vertex", "repeated-edge", "repeated-vertex", "missing-edges",
         "missing-vertices"],
)
def test_eval_rejects_unknown_graph_endpoints(generated, capsys, edit, field):
    tmp, dialogue_path, gold_path = generated
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out")]) == 0
    graph_path = tmp / "out" / "graph.json"
    doc = json.loads(graph_path.read_text())
    edit(doc)
    graph_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--predicted", str(graph_path), "--gold", str(gold_path)]) == 4
    assert field in capsys.readouterr().err


def test_eval_rejects_a_gold_file_without_causal_links(generated, capsys):
    tmp, dialogue_path, gold_path = generated
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out")]) == 0
    doc = json.loads(gold_path.read_text())
    del doc["causal_links"]
    gold_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["eval", "--predicted", str(tmp / "out" / "graph.json"), "--gold", str(gold_path)]) == 4
    assert capsys.readouterr().err == f"error: {gold_path}: causal_links: missing required field\n"


MANIFEST_KEYS = {"version", "config", "providers", "inputs", "outputs", "stages"}


@pytest.mark.parametrize(
    "gen_flags, partial_audio",
    [([], False), (["--turns", "200", "--noise", "1.0"], False), ([], True)],
    ids=["seed-1", "200-turns-noise-1", "partial-audio"],
)
def test_every_subcommand_manifest_has_the_run_format(tmp_path, gen_flags, partial_audio):
    """The stage subcommands write run's bytes and manifests of its format.
    At noise 1.0 every utterance outside the chain carries a decoy event.
    A window line states only the audio its dialogue has, so extract of a
    partial-audio KB needs no index-time rate_scale."""
    dialogue_path, gold_path = tmp_path / "d.dialogue.json", tmp_path / "d.gold.json"
    assert main(["gen", "--seed", "1", *gen_flags, "--out-prefix", str(tmp_path / "d")]) == 0
    source, flags = dialogue_path, []
    if partial_audio:
        doc = json.loads(dialogue_path.read_text())
        del doc["audio"][0]
        source, flags = tmp_path / "partial.json", ["--rate-scale", "2"]
        source.write_text(json.dumps(doc))
    run = tmp_path / "out"
    kb, sx, graph, report = (tmp_path / name
                             for name in ("kb.cmkb", "sextuplets.json", "graph.json", "report.json"))
    sidecar = lambda out: Path(f"{out}.manifest.json")
    steps = [
        (["index", str(source), "--out", str(kb), *flags], sidecar(kb), ["validate", "index"]),
        (["extract", "--kb", str(kb), "--dialogue", str(source), "--out", str(sx)],
         sidecar(sx), ["validate", "extract"]),
        (["graph", "--sextuplets", str(sx), "--out", str(graph)], sidecar(graph), ["validate", "graph"]),
        (["eval", "--predicted", str(graph), "--gold", str(gold_path), "--out", str(report)],
         sidecar(report), ["validate", "eval"]),
        (["run", "--dialogue", str(source), "--gold", str(gold_path),
          "--out-dir", str(run), *flags], run / "manifest.json",
         ["validate", "index", "extract", "graph", "eval"]),
    ]
    for argv, _, _ in steps:
        assert main(argv) == 0
    for out in (kb, sx, graph, report):
        assert out.read_bytes() == (run / out.name).read_bytes(), out.name
    assert digest(sidecar(sx)) == digest(run / "manifest.json")
    # graph embeds the extract document unchanged
    by_id = lambda doc: (doc["dialogue_id"], sorted(doc["sextuplets"], key=lambda item: item["id"]))
    assert by_id(json.loads(graph.read_text())) == by_id(json.loads(sx.read_text()))
    for manifest_path, stages in [(sidecar(dialogue_path), ["gen"])] + [s[1:] for s in steps]:
        manifest = json.loads(manifest_path.read_text())
        assert set(manifest) == MANIFEST_KEYS
        assert [stage["name"] for stage in manifest["stages"]] == stages
        assert manifest["outputs"] and (manifest["inputs"] or stages == ["gen"])
        for path, sha in {**manifest["inputs"], **manifest["outputs"]}.items():
            assert sha256_file(path) == sha
    gen_manifest = json.loads(sidecar(dialogue_path).read_text())
    assert gen_manifest["config"] is None
    assert set(gen_manifest["outputs"]) == {str(dialogue_path), str(gold_path)}
    # a stage a subcommand shares with run records the same keys in both manifests
    run_stages = {stage["name"]: set(stage) for stage in json.loads(steps[-1][1].read_text())["stages"]}
    for _, manifest_path, _ in steps[:-1]:
        for stage in json.loads(manifest_path.read_text())["stages"]:
            assert set(stage) == run_stages[stage["name"]], (manifest_path, stage["name"])


_BROKEN_SEXTUPLETS = [
    ({"sentiment": "bogus"}, "sextuplets[1]: sentiment_label 'bogus' not one of"),
    ({"t_end": -1.0}, "sextuplets[1]: t_end must be >= t_start"),
    ({"holder": "  "}, "sextuplets[1]: holder must be non-empty"),
    ({"rationale": " "}, "sextuplets[1]: rationale must be non-empty"),
    ("repeat", "sextuplets[1].id: repeats sextuplet id"),
]


@pytest.mark.parametrize("broken, message", _BROKEN_SEXTUPLETS)
@pytest.mark.parametrize("reader", ["graph --sextuplets", "eval --predicted", "eval --gold"])
def test_sextuplets_read_from_a_file_are_gated(generated, capsys, reader, broken, message):
    tmp, dialogue_path, gold_path = generated
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out")]) == 0
    sx_path, graph_path = tmp / "out" / "sextuplets.json", tmp / "out" / "graph.json"
    path = {"graph --sextuplets": sx_path, "eval --predicted": graph_path,
            "eval --gold": gold_path}[reader]
    doc = json.loads(path.read_text())
    item = doc["sextuplets"][1]
    item.update({"id": doc["sextuplets"][0]["id"]} if broken == "repeat" else broken)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    if reader == "graph --sextuplets":
        argv = ["graph", "--sextuplets", str(sx_path), "--out", str(tmp / "g.json")]
    else:
        argv = ["eval", "--predicted", str(graph_path), "--gold", str(gold_path)]
    assert main(argv) == 4
    assert message in capsys.readouterr().err


def test_graph_reads_stored_sextuplets_that_carry_a_score_and_writes_them_without_it(generated):
    tmp, dialogue_path, _ = generated
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out")]) == 0
    sx_path, graph_path = tmp / "out" / "sextuplets.json", tmp / "out" / "graph.json"
    doc = json.loads(sx_path.read_text())
    for item, score in zip(doc["sextuplets"], (0.5, 7, "high", None)):
        item["sentiment_score"] = score
    sx_path.write_text(json.dumps(doc))
    assert main(["graph", "--sextuplets", str(sx_path), "--out", str(tmp / "g.json")]) == 0
    assert "sentiment_score" not in (tmp / "g.json").read_text()
    assert (tmp / "g.json").read_bytes() == graph_path.read_bytes()


def test_missing_file_is_usage_error(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("content", ["", " \n\t\n", "[]"])
def test_a_corpus_file_with_no_dialogue_is_format_error(tmp_path, capsys, content):
    corpus, out = tmp_path / "empty.jsonl", tmp_path / "kb.cmkb"
    corpus.write_text(content)
    assert main(["index", str(corpus), "--out", str(out)]) == 4
    assert "no dialogue" in capsys.readouterr().err
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


@pytest.mark.parametrize("content", ["", '{"id": "x"}\n'], ids=["no-dialogue", "missing-field"])
def test_a_schema_error_names_its_file(generated, capsys, content):
    tmp, dialogue_path, _ = generated
    corpus = tmp / "corpus.jsonl"
    corpus.write_text(content)
    capsys.readouterr()
    assert main(["index", str(dialogue_path), str(corpus), "--out", str(tmp / "kb.cmkb")]) == 4
    assert capsys.readouterr().err.startswith(f"error: {corpus}: ")


@pytest.mark.parametrize("layout, code, message", [
    ("jsonl", 4, "error: {corpus}: line 2: id: repeats dialogue id 'synth-00000007'"),
    ("array", 4, "error: {corpus}: [1].id: repeats dialogue id 'synth-00000007'"),
    ("one-file-twice", 2, "error: dialogue id 'synth-00000007' is indexed more than once"),
], ids=["jsonl", "array", "one-file-twice"])
def test_a_dialogue_id_indexed_twice_is_refused(generated, capsys, layout, code, message):
    """Within one corpus file the repeat is a fault of the file (exit 4),
    across the files given to index a fault of the arguments (exit 2)."""
    tmp, dialogue_path, _ = generated
    text, corpus, out = dialogue_path.read_text(), tmp / "corpus.json", tmp / "kb.cmkb"
    corpus.write_text(f"[{text}, {text}]" if layout == "array" else (json.dumps(json.loads(text)) + "\n") * 2)
    inputs = [dialogue_path] * 2 if layout == "one-file-twice" else [corpus]
    capsys.readouterr()
    assert main(["index", *map(str, inputs), "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(message.format(corpus=corpus))
    assert not out.exists() and not Path(f"{out}.manifest.json").exists()


@pytest.mark.parametrize("shape", ["document", "jsonl-line", "array"])
def test_every_dialogue_reader_takes_each_file_shape(generated, capsys, shape):
    """The dialogue as its own document, one JSONL line or a one-element
    array: validate, retrieve and extract print and write what they do for
    the document itself, and run writes SHA-identical artifacts."""
    tmp, dialogue_path, gold_path = generated
    source, kb, text = tmp / f"{shape}.json", tmp / "kb.cmkb", json.dumps(json.loads(dialogue_path.read_text()))
    source.write_text({"document": dialogue_path.read_text(), "jsonl-line": text + "\n", "array": f"[{text}]"}[shape])
    assert main(["index", str(dialogue_path), "--out", str(kb)]) == 0
    outputs = {}
    for name, path in (("doc", dialogue_path), ("shaped", source)):
        capsys.readouterr()
        assert main(["validate", str(path)]) == 0
        assert main(["retrieve", "--kb", str(kb), "--dialogue", str(path), "--window", "3"]) == 0
        assert main(["extract", "--kb", str(kb), "--dialogue", str(path), "--out", str(tmp / f"{name}.sx.json")]) == 0
        assert main(["run", "--dialogue", str(path), "--gold", str(gold_path), "--out-dir", str(tmp / name)]) == 0
        printed = capsys.readouterr().out
        outputs[name] = (printed[: printed.index("extracted ")],
                         *(sha256_file(tmp / name / artifact) for artifact in
                           ("kb.cmkb", "sextuplets.json", "graph.json", "report.json")),
                         (tmp / f"{name}.sx.json").read_bytes())
    assert outputs["shaped"] == outputs["doc"]


def _two_dialogue_jsonl(tmp: Path, dialogue_path: Path, broken: bool = False) -> Path:
    """dialogue_path then gen --seed 8's dialogue, as JSONL; with `broken`,
    the second has utterance 3 of zero duration."""
    assert main(["gen", "--seed", "8", "--out-prefix", str(tmp / "other")]) == 0
    first, second = (json.loads(path.read_text()) for path in (dialogue_path, tmp / "other.dialogue.json"))
    if broken:
        second["utterances"][3]["t_end"] = second["utterances"][3]["t_start"]
    corpus = tmp / "two.jsonl"
    corpus.write_text("".join(json.dumps(doc) + "\n" for doc in (first, second)))
    return corpus


@pytest.mark.parametrize("command", ["run", "extract", "retrieve"])
def test_a_file_of_two_dialogues_is_refused_where_one_is_read(generated, capsys, command):
    tmp, dialogue_path, _ = generated
    corpus, kb, out = _two_dialogue_jsonl(tmp, dialogue_path), tmp / "kb.cmkb", tmp / "out"
    assert main(["index", str(corpus), "--out", str(kb)]) == 0
    capsys.readouterr()
    argv = {
        "run": ["run", "--dialogue", str(corpus), "--out-dir", str(out)],
        "extract": ["extract", "--kb", str(kb), "--dialogue", str(corpus), "--out", str(out)],
        "retrieve": ["retrieve", "--kb", str(kb), "--dialogue", str(corpus), "--window", "3"],
    }[command]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.err == f"error: {corpus}: holds 2 dialogues, expected one\n"
    assert captured.out == "" and not out.exists() and not Path(f"{out}.manifest.json").exists()


def test_validate_reports_each_dialogue_of_a_corpus(generated, capsys):
    tmp, dialogue_path, _ = generated
    corpus = _two_dialogue_jsonl(tmp, dialogue_path, broken=True)
    capsys.readouterr()
    assert main(["validate", str(corpus)]) == 1
    *issues, summary = capsys.readouterr().out.splitlines()
    assert issues and all(line.startswith("synth-00000008: ") for line in issues)
    assert any(line.startswith("synth-00000008: ERROR   utterances[3]: ") for line in issues)
    errors = sum(" ERROR " in line for line in issues)
    assert summary == f"{errors} error(s), {len(issues) - errors} warning(s)"


def test_extract_manifest_records_the_kb_window_settings(generated):
    """The windows come from the KB, so its window_size and stride are the
    ones extract's manifest records, whatever --config says."""
    tmp, dialogue_path, _ = generated
    kb, sx, config = tmp / "kb.cmkb", tmp / "sx.json", tmp / "config.json"
    config.write_text(json.dumps({"window_size": 20, "stride": 7}))
    assert main(["index", str(dialogue_path), "--out", str(kb), "--window-size", "4", "--stride", "2"]) == 0
    assert main(["extract", "--kb", str(kb), "--dialogue", str(dialogue_path), "--out", str(sx),
                 "--config", str(config)]) == 0
    recorded = json.loads(Path(f"{sx}.manifest.json").read_text())["config"]
    assert (recorded["window_size"], recorded["stride"]) == (4, 2)


@pytest.mark.parametrize("command", ["validate", "index", "retrieve", "extract", "graph", "eval", "gen", "run"])
def test_raw_scores_is_a_flag_only_where_scores_are_normalized(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert ("--raw-scores" in capsys.readouterr().out) == (command in ("graph", "run"))


@pytest.mark.parametrize("command, argv", [
    ("extract", ["--kb", "kb.cmkb", "--dialogue", "d.json", "--out", "sx.json"]),
    ("graph", ["--sextuplets", "sx.json", "--out", "g.json"]),
    ("run", ["--dialogue", "d.json", "--out-dir", "out"]),
], ids=["extract", "graph", "run"])
def test_there_is_no_jobs_flag_and_passing_one_is_a_usage_error(
    tmp_path, monkeypatch, capsys, command, argv
):
    """Remote calls overlap on REMOTE_WORKERS threads and all others run in
    order, so no command takes a thread count."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0 and "--jobs" not in capsys.readouterr().out
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eval_of_a_graph_without_sextuplets_names_its_file(generated, capsys):
    _, dialogue_path, gold_path = generated
    capsys.readouterr()
    assert main(["eval", "--predicted", str(dialogue_path), "--gold", str(gold_path)]) == 4
    assert capsys.readouterr().err == f"error: {dialogue_path}: sextuplets: missing required field\n"


def test_extract_with_a_kb_of_another_dialogue_is_format_error(generated, capsys):
    tmp, dialogue_path, _ = generated
    assert main(["gen", "--seed", "8", "--out-prefix", str(tmp / "other")]) == 0
    assert main(["index", str(tmp / "other.dialogue.json"), "--out", str(tmp / "other.cmkb")]) == 0
    capsys.readouterr()
    assert main(["extract", "--kb", str(tmp / "other.cmkb"), "--dialogue", str(dialogue_path),
                 "--out", str(tmp / "sx.json")]) == 4
    assert "dialogue 'synth-00000007' has no windows" in capsys.readouterr().err
    assert not (tmp / "sx.json").exists()


def test_help_documents_config_mapping(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "ScoringConfig.alpha" in out
    assert "ScoringConfig.edge_threshold" in out


# ---------------------------------------------------------------------------
# Every reader's error surface: gen --seed 1 inputs, mutated, through cli.main
# ---------------------------------------------------------------------------

_MUTATIONS = ("drop-key", "retype", "nan", "huge-int", "deep", "non-utf8", "truncate")
_OTHER_TYPES = (None, True, 7, 2.5, "x", [], {})
_COMMANDS = {
    "dialogue": ("validate", "index", "extract", "retrieve", "run"),
    "gold": ("eval", "run"),
    "graph": ("eval",),
    "sextuplets": ("graph",),
    "config": ("index", "extract", "graph", "eval", "run"),
    "kb": ("extract", "retrieve"),
}


@pytest.fixture(scope="module")
def seed_1_inputs(tmp_path_factory):
    """The six inputs the subcommands read, from gen --seed 1 and its run."""
    root = tmp_path_factory.mktemp("seed-1")
    dialogue, gold, run = root / "d.dialogue.json", root / "d.gold.json", root / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["gen", "--seed", "1", "--out-prefix", str(root / "d")]) == 0
        assert main(["run", "--dialogue", str(dialogue), "--gold", str(gold),
                     "--out-dir", str(run)]) == 0
    config = root / "config.json"
    config.write_text(dumps_canonical(asdict(ScoringConfig())))
    files = {"dialogue": dialogue, "gold": gold, "graph": run / "graph.json",
             "sextuplets": run / "sextuplets.json", "config": config, "kb": run / "kb.cmkb"}
    return root, files, itertools.count()


def _slots(value, path=()):
    """The path of every value nested in a JSON document, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,), isinstance(value, dict)
        yield from _slots(item, path + (key,))


def _mutate(data, payload: bytes, mutation: str) -> bytes:
    """One JSON document with one mutation drawn from data."""
    if mutation == "truncate":
        return payload[: data.draw(st.integers(0, len(payload) - 1))]
    if mutation == "non-utf8":
        at = data.draw(st.integers(0, len(payload)))
        return payload[:at] + data.draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + payload[at:]
    doc = json.loads(payload)
    slots = [path for path, keyed in _slots(doc) if keyed or mutation != "drop-key"]
    path = data.draw(st.sampled_from(slots))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    old = parent[key]
    if mutation == "drop-key":
        del parent[key]
    elif mutation == "retype":
        parent[key] = data.draw(st.sampled_from([v for v in _OTHER_TYPES if type(v) is not type(old)]))
    elif mutation == "nan":
        parent[key] = float("nan")
    else:
        parent[key] = "@@mutated@@"
    text = json.dumps(doc)
    if mutation == "huge-int":
        text = text.replace('"@@mutated@@"', "1" * 5000)
    elif mutation == "deep":
        depth = data.draw(st.sampled_from([50, 3000, 100_000]))
        text = text.replace('"@@mutated@@"', "[" * depth + "]" * depth)
    return text.encode("utf-8")


def _mutate_kb(data, kb: bytes, mutation: str) -> bytes:
    """The .cmkb with its meta or windows JSON section mutated, checksum intact."""
    head, pos, sections = kb[:6], 6, []
    while pos < len(kb):
        (length,) = struct.unpack_from("<Q", kb, pos)
        sections.append(kb[pos + 8 : pos + 8 + length])
        pos += 12 + length
    target = data.draw(st.sampled_from([0, 1]))
    sections[target] = _mutate(data, sections[target], mutation)
    return head + b"".join(_pack_section(section) for section in sections)


def _argv(command: str, f: dict, out: str) -> list[str]:
    return {
        "validate": ["validate", f["dialogue"]],
        "index": ["index", f["dialogue"], "--out", out, "--config", f["config"]],
        "extract": ["extract", "--kb", f["kb"], "--dialogue", f["dialogue"], "--out", out,
                    "--config", f["config"]],
        "retrieve": ["retrieve", "--kb", f["kb"], "--dialogue", f["dialogue"], "--window", "1"],
        "graph": ["graph", "--sextuplets", f["sextuplets"], "--out", out, "--config", f["config"]],
        "eval": ["eval", "--predicted", f["graph"], "--gold", f["gold"], "--out", out,
                 "--config", f["config"]],
        "run": ["run", "--dialogue", f["dialogue"], "--gold", f["gold"], "--out-dir", out,
                "--config", f["config"]],
    }[command]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_mutated_input_exits_with_a_known_code_and_a_refusal_writes_nothing(seed_1_inputs, data):
    root, files, counter = seed_1_inputs
    name = data.draw(st.sampled_from(sorted(_COMMANDS)))
    mutation = data.draw(st.sampled_from(_MUTATIONS))
    command = data.draw(st.sampled_from(_COMMANDS[name]))
    original = files[name].read_bytes()
    mutated = (_mutate_kb if name == "kb" else _mutate)(data, original, mutation)
    case = root / f"case-{next(counter)}"
    case.mkdir()
    (case / files[name].name).write_bytes(mutated)
    f = {**{k: str(v) for k, v in files.items()}, name: str(case / files[name].name)}
    out = case / "out"
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(_argv(command, f, str(out)))
    # only a config file can hold a usage error; a faulty data file exits 1 or 4
    assert code in ((0, 1, 2, 4) if name == "config" else (0, 1, 4)), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    if code:
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()
    shutil.rmtree(case)
