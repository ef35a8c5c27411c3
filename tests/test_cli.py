"""Subcommand behavior and exit codes, driven through cli.main in-process."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from emocause.cli import main
from emocause.model import dumps_canonical


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


@pytest.mark.parametrize("value", [5, -0.5, 1.5])
def test_consistency_floor_outside_unit_range_is_usage_error(generated, tmp_path, capsys, value):
    tmp, dialogue_path, _ = generated
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"consistency_floor": value}))
    assert main(["run", "--dialogue", str(dialogue_path), "--out-dir", str(tmp / "x"),
                 "--config", str(config_path)]) == 2
    assert f"error: consistency_floor={value!r} outside [0, 1]" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["eval", "--predicted", "{bad}", "--gold", "{gold}"],
    ["graph", "--sextuplets", "{bad}", "--out", "{tmp}/g.json"],
    ["run", "--dialogue", "{dialogue}", "--out-dir", "{tmp}/out", "--config", "{bad}"],
], ids=["eval-predicted", "graph-sextuplets", "run-config"])
def test_malformed_json_input_is_format_error(generated, tmp_path, capsys, command):
    tmp, dialogue_path, gold_path = generated
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    paths = {"bad": bad, "gold": gold_path, "dialogue": dialogue_path, "tmp": tmp}
    assert main([arg.format(**paths) for arg in command]) == 4
    assert "error: Expecting property name" in capsys.readouterr().err


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


def test_missing_file_is_usage_error(tmp_path):
    assert main(["validate", str(tmp_path / "nope.json")]) == 2


def test_help_documents_config_mapping(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "ScoringConfig.alpha" in out
    assert "ScoringConfig.edge_threshold" in out
