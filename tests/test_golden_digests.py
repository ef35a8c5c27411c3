"""Golden digests of the offline artifacts that do not depend on the BLAS kernel.

For `gen --seed s --noise 0.3`, s = 1..5, then an offline `run --gold`: the
SHA-256 of sextuplets.json and report.json and the extract stage's
prompt_sha256. For `extract` of seed 3's dialogue against a KB indexed from
the dialogues of seeds 3 and 4: its prompt_sha256 and the SHA-256 of its
sextuplets.json. kb.cmkb and graph.json are left out: their last bits
follow the BLAS kernel OpenBLAS picks for the CPU (ROADMAP item 26).

A change that alters one of these artifacts on purpose rewrites the file
with `PYTHONPATH=src python tests/test_golden_digests.py` and names each
changed digest in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from emocause.cli import main

GOLDEN = Path(__file__).with_name("golden_digests.json")


def _cli(*args: str) -> None:
    assert main(list(args)) == 0, args


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _prompt_sha256(manifest: Path) -> str:
    stages = json.loads(manifest.read_text())["stages"]
    return next(stage["prompt_sha256"] for stage in stages if stage["name"] == "extract")


def compute_digests(work: Path) -> dict:
    runs = {}
    for seed in range(1, 6):
        prefix, out = work / f"seed{seed}", work / f"run{seed}"
        _cli("gen", "--seed", str(seed), "--noise", "0.3", "--out-prefix", str(prefix))
        _cli("run", "--dialogue", f"{prefix}.dialogue.json", "--gold", f"{prefix}.gold.json",
             "--out-dir", str(out))
        runs[str(seed)] = {
            "prompt_sha256": _prompt_sha256(out / "manifest.json"),
            "report.json": _sha256(out / "report.json"),
            "sextuplets.json": _sha256(out / "sextuplets.json"),
        }
    kb, out = work / "corpus.cmkb", work / "corpus3.sextuplets.json"
    _cli("index", str(work / "seed3.dialogue.json"), str(work / "seed4.dialogue.json"),
         "--out", str(kb))
    _cli("extract", "--kb", str(kb), "--dialogue", str(work / "seed3.dialogue.json"),
         "--out", str(out))
    corpus = {
        "prompt_sha256": _prompt_sha256(Path(f"{out}.manifest.json")),
        "sextuplets.json": _sha256(out),
    }
    return {"run": runs, "corpus_extract": corpus}


def test_golden_digests(tmp_path):
    assert compute_digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = compute_digests(Path(work))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
