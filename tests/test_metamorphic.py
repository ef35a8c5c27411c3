"""Metamorphic properties of the whole pipeline: a change to the input that
the method must ignore leaves its outputs as they were. Each example runs
pipeline.run_pipeline with the offline providers on the files of a
synth.generate dialogue and its gold, and again on a transformed copy."""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from emocause.metrics import gold_to_dict
from emocause.model import dialogue_to_dict, dumps_canonical
from emocause.pipeline import RunResult, run_pipeline
from emocause.synth import ChainSpec, generate

_specs = st.builds(
    ChainSpec, seed=st.integers(0, 10_000), turns=st.integers(70, 120), noise_rate=st.floats(0.0, 1.0)
)
_bounded = settings(max_examples=20, deadline=None, derandomize=True)


def _documents(spec: ChainSpec) -> tuple[dict, dict]:
    dialogue, gold = generate(spec)
    return dialogue_to_dict(dialogue), gold_to_dict(gold)


def _run(dialogue: dict, gold: dict) -> tuple[RunResult, dict[str, bytes]]:
    """The run over the two documents, and the bytes of its KB and report."""
    with tempfile.TemporaryDirectory() as tmp:
        dialogue_path, gold_path, out = Path(tmp, "d.json"), Path(tmp, "g.json"), Path(tmp, "out")
        dialogue_path.write_text(dumps_canonical(dialogue))
        gold_path.write_text(dumps_canonical(gold))
        result = run_pipeline(dialogue_path, out, gold_path=gold_path)
        return result, {name: (out / name).read_bytes() for name in ("kb.cmkb", "report.json")}


def _prompt_digest(result: RunResult) -> str:
    return next(stage["prompt_sha256"] for stage in result.manifest.stages if stage["name"] == "extract")


@_bounded
@given(_specs, st.floats(0.0, 10_000.0))
def test_a_time_shift_changes_no_report_or_kb_byte_and_no_weight_beyond_1e_12(spec, c):
    dialogue, gold = _documents(spec)
    base, base_files = _run(dialogue, gold)
    for record in (*dialogue["utterances"], *gold["sextuplets"]):
        record["t_start"] += c
        record["t_end"] += c
    shifted, shifted_files = _run(dialogue, gold)
    assert shifted_files == base_files
    pairs = [(e.cause_id, e.effect_id) for e in base.graph.edges]
    assert [(e.cause_id, e.effect_id) for e in shifted.graph.edges] == pairs
    assert all(abs(a.weight - b.weight) <= 1e-12 for a, b in zip(shifted.graph.edges, base.graph.edges))


@_bounded
@given(_specs, st.from_regex(r"[\w.-]{1,24}", fullmatch=True))
def test_a_dialogue_id_rename_changes_no_report_byte_weight_or_prompt(spec, new_id):
    dialogue, gold = _documents(spec)
    base, base_files = _run(dialogue, gold)
    dialogue["id"] = gold["dialogue_id"] = new_id
    renamed, renamed_files = _run(dialogue, gold)
    assert renamed_files["report.json"] == base_files["report.json"]
    assert [e.weight for e in renamed.graph.edges] == [e.weight for e in base.graph.edges]
    assert _prompt_digest(renamed) == _prompt_digest(base)  # no prompt holds the id


@_bounded
@given(_specs, st.randoms(use_true_random=False))
def test_an_audio_permutation_changes_no_kb_byte(spec, rng):
    dialogue, gold = _documents(spec)
    _, base_files = _run(dialogue, gold)
    rng.shuffle(dialogue["audio"])
    _, shuffled_files = _run(dialogue, gold)
    assert shuffled_files["kb.cmkb"] == base_files["kb.cmkb"]
