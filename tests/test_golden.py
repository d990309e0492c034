"""Golden digests: a fixed set of CLI runs writes the same bytes on every version of the program.

``synth`` writes a 32-utterance desk corpus; ``train`` trains the four
methods on it for 2 epochs, measuring train CER every epoch; ``decode``
(attention with ``--nbest``, and CTC rescoring) and ``eval --ckpt`` then
run on the checkpoint of each decoder kind, the plain decoder of
aligned_fusion and the N-best-memory decoder. The SHA-256 of every file
these write must equal the one in ``tests/golden.json`` under this
environment's key (numpy version, Python version, machine). So a change
that moves any output, in its last bit included, fails here. A change
meant to move numbers re-records with ``python3 tests/record_golden.py``
and says so.

``train.log`` is digested with its wall-clock times masked, the one
field of any of these files that changes from run to run.
"""

import hashlib
import json
import platform
import re
from pathlib import Path

import numpy as np

from ctcfuse import cli

GOLDEN = Path(__file__).resolve().parent / "golden.json"
RECORDER = "python3 tests/record_golden.py"
METHODS = ("baseline", "embed_fusion", "aligned_fusion", "nbest_memory")
DECODER_KINDS = ("aligned_fusion", "nbest_memory")  # plain and N-best-memory decoders
WALL = re.compile(rb"wall=[0-9.]+s")


def env_key() -> str:
    return f"numpy-{np.__version__}/python-{platform.python_version()}/{platform.machine()}"


def _cli(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"ctcfuse {' '.join(map(str, argv))} exited {code}")


def golden_run(workdir: Path) -> dict[str, str]:
    """Run every command in ``workdir`` (the current directory); SHA-256 of each file written.

    Paths are relative, so the files hold no trace of where ``workdir`` is.
    """
    _cli("synth", "--out", "corpus", "--count", 32, "--seed", 11)
    for method in METHODS:
        config = {
            "data": {"manifest": "corpus/manifest.tsv", "vocab": "corpus/vocab.txt"},
            "fusion": {"method": method},
            "gating": {"mode": "relative" if method == "aligned_fusion" else "absolute"},
            "train": {"epochs": 2, "eval_every": 1, "seed": 5},
        }
        Path(f"{method}.json").write_text(json.dumps(config))
        _cli("train", "--config", f"{method}.json", "--out", f"runs/{method}", "--quiet")
    for method in DECODER_KINDS:
        common = ("--ckpt", f"runs/{method}/model.ckpt", "--manifest", "corpus/manifest.tsv",
                  "--vocab", "corpus/vocab.txt", "--beam", 4)
        _cli("decode", *common, "--nbest", 3, "--out", f"{method}.attention.tsv")
        _cli("decode", *common, "--method", "ctc_rescore", "--out", f"{method}.rescore.tsv")
        _cli("eval", *common, "--out", f"{method}.eval.jsonl")
    digests = {}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        blob = path.read_bytes()
        if path.name == "train.log":
            blob = WALL.sub(b"wall=-", blob)
        digests[path.relative_to(workdir).as_posix()] = hashlib.sha256(blob).hexdigest()
    return digests


def test_outputs_match_golden_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    digests = golden_run(tmp_path)
    capsys.readouterr()  # the commands' own stdout

    # the run covers the fusion machinery: every gate pathway, and inserted blanks
    pathways, blanks = {}, 0
    for method in METHODS:
        for line in (tmp_path / "runs" / method / "metrics.jsonl").read_text().splitlines():
            record = json.loads(line)
            blanks += record["blanks_inserted"]
            for pathway, count in record["pathway_counts"].items():
                pathways[pathway] = pathways.get(pathway, 0) + count
    assert sorted(p for p, n in pathways.items() if n > 0) == [
        "ctc_as_input", "fuse", "ground_truth_only"
    ]
    assert blanks > 0

    recorded = json.loads(GOLDEN.read_text())
    key = env_key()
    if key not in recorded:
        raise AssertionError(
            f"tests/golden.json has no digests for {key}; record them with `{RECORDER}` "
            "on a commit whose outputs are known to be right"
        )
    expected = recorded[key]
    # pytest keeps tmp_path, so a mismatching file can be diffed against a run of the parent
    kept = f"(this run's outputs are in {tmp_path})"
    changed = sorted(p for p in expected.keys() & digests.keys() if expected[p] != digests[p])
    assert changed == [], f"files differ from their golden digests: {changed} {kept}"
    assert sorted(digests.keys() - expected.keys()) == [], f"files written that have no digest {kept}"
    assert sorted(expected.keys() - digests.keys()) == [], f"files with a digest not written {kept}"
