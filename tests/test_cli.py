"""Subcommand behavior and exit codes, driven through cli.main in-process."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import shutil
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emocause
from emocause.cli import main
from emocause.kb import _pack_section, read_kb, write_kb
from emocause.model import ScoringConfig, dumps_canonical, scoring_config_to_dict
from emocause.pipeline import sha256_file


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
    assert "audio[0].emotion: emotion vector has" in capsys.readouterr().err
    assert not (tmp / "out").exists()


def test_validate_malformed_json_is_format_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["validate", str(bad)]) == 4


def test_index_and_retrieve(generated, capsys):
    tmp, dialogue_path, _ = generated
    kb_path = tmp / "kb.cmkb"
    assert main(["index", str(dialogue_path), "--out", str(kb_path)]) == 0
    assert kb_path.exists()
    assert Path(str(kb_path) + ".manifest.json").exists()
    capsys.readouterr()
    assert main(["retrieve", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
                 "--window", "3", "--top-n", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("similarity=") == 2


def test_retrieve_top_n_beyond_kb_prints_all(generated, capsys):
    tmp, dialogue_path, _ = generated
    kb_path = tmp / "kb.cmkb"
    main(["index", str(dialogue_path), "--out", str(kb_path)])
    capsys.readouterr()
    assert main(["retrieve", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
                 "--window", "0", "--top-n", "999"]) == 0
    out = capsys.readouterr().out
    assert out.count("similarity=") == 14  # 15 windows minus the query itself


def test_retrieve_missing_window_is_format_error(generated):
    tmp, dialogue_path, _ = generated
    kb_path = tmp / "kb.cmkb"
    main(["index", str(dialogue_path), "--out", str(kb_path)])
    assert main(["retrieve", "--kb", str(kb_path), "--dialogue", str(dialogue_path),
                 "--window", "99"]) == 4


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
    assert "error: window 3: spans utterances [15..24] but dialogue" in capsys.readouterr().err


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
        "doc_id": "ext-1",
        "triplets": [[0, 1, 0, 1, 0, 1, "neg", "Voltify", "pricing", "negative"]],
    }]))
    capsys.readouterr()
    assert main(["eval", "--predicted", str(graph_path), "--gold", str(triplet_gold)]) == 0
    out = capsys.readouterr().out
    assert "span_f1[sentiment]" in out


def test_gold_of_another_dialogue_is_format_error(generated, capsys):
    tmp, dialogue_path, _ = generated
    assert main(["gen", "--seed", "8", "--out-prefix", str(tmp / "other")]) == 0
    other_gold = tmp / "other.gold.json"
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out")]) == 0
    capsys.readouterr()
    assert main(["eval", "--predicted", str(tmp / "out" / "graph.json"),
                 "--gold", str(other_gold)]) == 4
    err = capsys.readouterr().err
    assert "'synth-00000007'" in err and "'synth-00000008'" in err
    assert main(["run", "--dialogue", str(dialogue_path), "--gold", str(other_gold),
                 "--out-dir", str(tmp / "out2")]) == 4
    assert "'synth-00000008'" in capsys.readouterr().err


@pytest.mark.parametrize("gold", ["malformed", "other-dialogue"])
def test_run_refused_for_its_gold_writes_nothing(generated, capsys, gold):
    tmp, dialogue_path, _ = generated
    gold_path = tmp / "other.gold.json"
    if gold == "malformed":
        gold_path.write_text('{"dialogue_id": ')
    else:
        assert main(["gen", "--seed", "8", "--out-prefix", str(tmp / "other")]) == 0
    assert main(["run", "--dialogue", str(dialogue_path), "--gold", str(gold_path),
                 "--out-dir", str(tmp / "out")]) == 4
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


def test_extract_and_run_record_the_same_prompt_digest(generated):
    tmp, dialogue_path, _ = generated
    kb, sx = tmp / "kb.cmkb", tmp / "sx.json"
    assert main(["index", str(dialogue_path), "--out", str(kb)]) == 0
    assert main(["extract", "--kb", str(kb), "--dialogue", str(dialogue_path), "--out", str(sx)]) == 0
    for jobs in ("1", "2"):
        assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / jobs),
                     "--jobs", jobs]) == 0

    def digest(manifest_path):
        stages = json.loads(manifest_path.read_text())["stages"]
        return next(stage["prompt_sha256"] for stage in stages if stage["name"] == "extract")

    extracted = digest(Path(f"{sx}.manifest.json"))
    assert len(extracted) == 64
    assert digest(tmp / "1" / "manifest.json") == digest(tmp / "2" / "manifest.json") == extracted


def test_offline_run_never_imports_requests(generated):
    tmp, dialogue_path, gold_path = generated
    code = ("import sys; from emocause.cli import main; "
            f"assert main(['run', '--dialogue', {str(dialogue_path)!r}, '--gold', "
            f"{str(gold_path)!r}, '--out-dir', {str(tmp / 'out')!r}]) == 0; "
            "assert 'requests' not in sys.modules, 'an offline run imported requests'")
    src = str(Path(emocause.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


@pytest.mark.parametrize("spec, code", [("foo", 2), ("remote:m", 2), ("hash:x", 2), ("remote:m:8", 3)])
def test_embedder_spec_errors_are_usage_errors_and_a_missing_endpoint_a_provider_error(
    generated, monkeypatch, spec, code
):
    tmp, dialogue_path, _ = generated
    monkeypatch.delenv("EMBED_ENDPOINT", raising=False)
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "out"),
                 "--embedder", spec]) == code
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
    assert "stride=5 must not exceed window_size=4" in capsys.readouterr().err


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
    empty_graph.write_text('{"vertices": [], "edges": [], "sextuplets": []}')
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
    ],
    ids=["cause", "effect", "vertex"],
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


MANIFEST_KEYS = {"version", "config", "providers", "inputs", "outputs", "stages"}


def test_every_subcommand_manifest_has_the_run_format(generated):
    tmp, dialogue_path, gold_path = generated
    kb, sx, graph, report = tmp / "kb.cmkb", tmp / "sx.json", tmp / "g.json", tmp / "report.json"
    sidecar = lambda out: Path(f"{out}.manifest.json")
    steps = [
        (["index", str(dialogue_path), "--out", str(kb)], sidecar(kb), ["validate", "index"]),
        (["extract", "--kb", str(kb), "--dialogue", str(dialogue_path), "--out", str(sx)],
         sidecar(sx), ["validate", "extract"]),
        (["graph", "--sextuplets", str(sx), "--out", str(graph)], sidecar(graph), ["graph"]),
        (["eval", "--predicted", str(graph), "--gold", str(gold_path), "--out", str(report)],
         sidecar(report), ["eval"]),
        (["run", "--dialogue", str(dialogue_path), "--gold", str(gold_path),
          "--out-dir", str(tmp / "out")], tmp / "out" / "manifest.json",
         ["validate", "index", "extract", "graph", "eval"]),
    ]
    for argv, _, _ in steps:
        assert main(argv) == 0
    for manifest_path, stages in [(sidecar(dialogue_path), ["gen"])] + [s[1:] for s in steps]:
        manifest = json.loads(manifest_path.read_text())
        assert set(manifest) == MANIFEST_KEYS
        assert [stage["name"] for stage in manifest["stages"]] == stages
        assert manifest["outputs"] and (manifest["inputs"] or stages == ["gen"])
        for path, digest in {**manifest["inputs"], **manifest["outputs"]}.items():
            assert sha256_file(path) == digest
    gen_manifest = json.loads(sidecar(dialogue_path).read_text())
    assert gen_manifest["config"] is None
    assert set(gen_manifest["outputs"]) == {str(dialogue_path), str(gold_path)}


_BROKEN_SEXTUPLETS = [
    ({"sentiment": "bogus"}, "sextuplets[1]: sentiment_label 'bogus' not one of"),
    ({"t_end": -1.0}, "sextuplets[1]: t_end must be >= t_start"),
    ({"holder": "  "}, "sextuplets[1]: holder must be non-empty"),
    ({"sentiment_score": 7}, "sextuplets[1]: sentiment_score 7.0 outside [-1, 1]"),
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


def test_missing_file_is_usage_error(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize("case", ["validate-a-directory", "run-out-dir-a-file", "index-out-a-directory"])
def test_a_path_that_cannot_be_read_or_written_is_usage_error(generated, case):
    tmp, dialogue_path, _ = generated
    (tmp / "a-dir").mkdir()
    (tmp / "a-file").write_text("kept")
    argv = {
        "validate-a-directory": ["validate", str(tmp / "a-dir")],
        "run-out-dir-a-file": ["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "a-file")],
        "index-out-a-directory": ["index", str(dialogue_path), "--out", str(tmp / "a-dir")],
    }[case]
    src = str(Path(emocause.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-m", "emocause.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stderr.startswith("error: ")
    assert (tmp / "a-file").read_text() == "kept"


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
    config.write_text(dumps_canonical(scoring_config_to_dict(ScoringConfig())))
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
    assert code in (0, 1, 2, 4), stderr.getvalue()
    assert "Traceback" not in stderr.getvalue()
    if code:
        assert not out.exists() and not Path(f"{out}.manifest.json").exists()
    shutil.rmtree(case)
