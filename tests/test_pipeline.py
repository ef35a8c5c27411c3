"""Whole-pipeline runs: artifacts, manifest digests, reproducibility."""

from __future__ import annotations

import hashlib
import json
from types import SimpleNamespace

import pytest

import emocause
import emocause.extraction
import emocause.ingest
import emocause.pipeline
from emocause.errors import SchemaError
from emocause.extraction import MockExtractor, extract_dialogue
from emocause.kb import read_kb, retrieve
from emocause.model import ScoringConfig, dialogue_to_dict, dumps_canonical, validate_dialogue
from emocause.metrics import gold_to_dict
from emocause.pipeline import RunManifest, run_pipeline, sha256_file
from emocause.synth import ChainSpec, generate

from conftest import PairedExtractor, PairedNli, run_child


@pytest.fixture
def workdir(tmp_path):
    dialogue, gold = generate(ChainSpec(seed=7, turns=80, chain_length=4))
    dialogue_path = tmp_path / "d.dialogue.json"
    gold_path = tmp_path / "d.gold.json"
    dialogue_path.write_text(dumps_canonical(dialogue_to_dict(dialogue)))
    gold_path.write_text(dumps_canonical(gold_to_dict(gold)))
    return tmp_path, dialogue_path, gold_path


def test_importing_emocause_loads_none_of_its_modules():
    code = ("import sys, emocause; assert emocause.__version__; "
            "loaded = sorted(m for m in sys.modules if m.startswith('emocause.')); assert not loaded, loaded")
    proc = run_child("-c", code)
    assert proc.returncode == 0, proc.stderr


def test_run_pipeline_produces_all_artifacts(workdir):
    tmp, dialogue_path, gold_path = workdir
    result = run_pipeline(dialogue_path, tmp / "out", gold_path=gold_path)
    for name in ("kb.cmkb", "sextuplets.json", "graph.json", "report.json", "manifest.json"):
        assert (tmp / "out" / name).exists()
    assert result.report is not None
    assert result.report.causal_correctness == 1.0
    assert result.report.causal_consistency == 1.0


def test_run_pipeline_manifest_contents(workdir):
    tmp, dialogue_path, gold_path = workdir
    result = run_pipeline(dialogue_path, tmp / "out", gold_path=gold_path)
    manifest = json.loads((tmp / "out" / "manifest.json").read_text())
    assert manifest["providers"] == {"embedder": "hash:64:0", "extractor": "mock", "nli": "overlap"}
    assert str(dialogue_path) in manifest["inputs"]
    stage_names = [s["name"] for s in manifest["stages"]]
    assert stage_names == ["validate", "index", "extract", "graph", "eval"]
    for path, digest in manifest["outputs"].items():
        assert sha256_file(path) == digest


def test_run_manifest_records_stages_and_digests_and_writes_sorted_json(tmp_path):
    source, target = tmp_path / "in.txt", tmp_path / "out.txt"
    source.write_text("in")
    manifest = RunManifest(None, {"generator": "chain:1"})
    manifest.add_input(source)
    with manifest.stage("gen"):
        target.write_text("out")
        manifest.add_output(target)
    manifest.write(tmp_path / "m.json")
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc == {
        "version": emocause.__version__,
        "config": None,
        "providers": {"generator": "chain:1"},
        "inputs": {str(source): sha256_file(source)},
        "outputs": {str(target): sha256_file(target)},
        "stages": [{"name": "gen", "seconds": doc["stages"][0]["seconds"]}],
    }
    assert doc["stages"][0]["seconds"] >= 0.0
    assert (tmp_path / "m.json").read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_run_pipeline_without_gold_skips_eval(workdir):
    tmp, dialogue_path, _ = workdir
    result = run_pipeline(dialogue_path, tmp / "out2")
    assert result.report is None
    assert not (tmp / "out2" / "report.json").exists()


def test_run_pipeline_deterministic_whether_calls_overlap_or_not(workdir):
    tmp, dialogue_path, gold_path = workdir
    a = run_pipeline(dialogue_path, tmp / "a", gold_path=gold_path)
    b = run_pipeline(dialogue_path, tmp / "b", gold_path=gold_path,
                     extractor=PairedExtractor(), nli=PairedNli())
    for name in ("kb.cmkb", "sextuplets.json", "graph.json", "report.json"):
        assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()
    assert _prompt_digest(a) == _prompt_digest(b)


def _prompt_digest(result):
    return next(s["prompt_sha256"] for s in result.manifest.stages if s["name"] == "extract")


def test_prompt_digest_is_the_sha256_of_the_prompts_and_survives_a_kb_file(workdir):
    tmp, dialogue_path, _ = workdir
    result = run_pipeline(dialogue_path, tmp / "out")
    stored = read_kb(tmp / "out" / "kb.cmkb")
    prompts = []
    extractor = MockExtractor()
    recorder = SimpleNamespace(id="rec", mode="mock",
                               complete=lambda text: prompts.append(text) or extractor.complete(text))
    again = hashlib.sha256()
    assert extract_dialogue(result.dialogue, stored, recorder, prompt_hash=again) == result.sextuplets
    assert len(prompts) == stored.meta.entry_count
    assert again.hexdigest() == _prompt_digest(result)
    assert again.hexdigest() == hashlib.sha256("".join(prompts).encode("utf-8")).hexdigest()


def test_prompt_digest_sees_a_reversed_ranking_that_the_sextuplets_do_not(workdir, monkeypatch):
    tmp, dialogue_path, _ = workdir
    ranked = run_pipeline(dialogue_path, tmp / "ranked")

    def least_similar(window, query, kb, top_n):
        return retrieve(window, query, kb, kb.meta.entry_count)[::-1][:top_n]

    monkeypatch.setattr(emocause.extraction, "retrieve", least_similar)
    least = run_pipeline(dialogue_path, tmp / "reversed")
    assert _prompt_digest(least) != _prompt_digest(ranked)
    assert (tmp / "reversed" / "sextuplets.json").read_bytes() == (
        tmp / "ranked" / "sextuplets.json"
    ).read_bytes()


def test_run_pipeline_custom_config(workdir):
    tmp, dialogue_path, gold_path = workdir
    cfg = ScoringConfig(window_size=8, stride=4, edge_threshold=0.9)
    result = run_pipeline(dialogue_path, tmp / "out3", cfg, gold_path=gold_path)
    assert result.kb.meta.window_size == 8
    # threshold 0.9 cuts the planted links, whose weights sit near 0.55-0.6
    assert len(result.graph.edges) == 0


def test_run_pipeline_rejects_gold_for_other_dialogues(workdir):
    tmp, dialogue_path, _ = workdir
    gold_path = tmp / "two-docs.gold.json"
    gold_path.write_text(json.dumps([
        {"doc_id": f"ext-{i}", "triplets": [[0, 1, 0, 1, 0, 1, "neg", "Voltify", "pricing", "negative"]]}
        for i in (1, 2)
    ]))
    with pytest.raises(SchemaError, match="synth-00000007"):
        run_pipeline(dialogue_path, tmp / "out4", gold_path=gold_path)


def test_run_pipeline_validates_the_dialogue_once(workdir, monkeypatch):
    tmp, dialogue_path, _ = workdir
    calls = []

    def counting(dialogue):
        calls.append(dialogue.id)
        return validate_dialogue(dialogue)

    monkeypatch.setattr(emocause.ingest, "validate_dialogue", counting)
    monkeypatch.setattr(emocause.pipeline, "validate_dialogue", counting)
    run_pipeline(dialogue_path, tmp / "out5")
    assert calls == ["synth-00000007"]
