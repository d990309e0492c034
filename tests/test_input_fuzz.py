"""Property tests: damaged input files and random CLI flags end in an exit code, not a traceback.

Random bytes and truncated copies of valid files go to ``stats --manifest``,
to both files of ``align``, to ``report --metrics``, and as a manifest, a
feature file or a ``--vocab`` file to ``eval --hyp`` (which loads all three
with no model, through ``data.load_corpus``), through the in-process ``cli.main``. Random flag sets go to every
subcommand, each value drawn from a small pool that cannot start a large
run. Each run exits 0, 1, 2 or 3; a non-zero exit prints exactly one
``error kind=...`` line to stderr and a zero exit prints none.
"""

import argparse
import contextlib
import io
import json
import os
import re
import shutil
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcfuse.cli import _build_parser, main
from ctcfuse.data import SynthConfig, synth_corpus
from ctcfuse.training import EpochMetrics

fuzz = settings(derandomize=True, deadline=None, max_examples=500)

# stats reads only the manifest, never the feature files it names
MANIFEST = b"".join(
    b"utt%d\tfeatures/utt%d.feat\t%d\t%s\n" % (i, i, 12 + i, text)
    for i, text in enumerate([b"abc", b"ba", b"cabd"])
)
METRICS = "".join(
    EpochMetrics(
        epoch=epoch, joint_loss=3.5 / epoch, ctc_loss=9.25 / epoch, att_loss=2.0 / epoch,
        blanks_inserted=4 - epoch, pathway_counts={"fuse": 1}, ctc_unreachable_ids=[],
        nbest_incomplete=0, utterances=3, train_cer=None if epoch == 1 else 0.5,
        wall_time_s=0.1,
    ).to_json_record()
    + "\n"
    for epoch in (1, 2)
).encode("utf-8")
ALIGN_REF = "ABCA\nnaïve café\n".encode("utf-8")
ALIGN_HYP = "ACA\nnaive cafe\n".encode("utf-8")

# eval --hyp reads a manifest, its feature files, a vocab and a hypothesis file;
# the manifest names utt<i>.feat beside it
VOCAB, UTTS = synth_corpus(
    SynthConfig(vocab_size=4, count=2, min_len=2, max_len=3, feature_dim=4, seed=3)
)
VOCAB_FILE = "".join(token + "\n" for token in VOCAB.id_to_token).encode("utf-8")
EVAL_MANIFEST = "".join(
    f"{u.utt_id}\tutt{i}.feat\t{u.num_frames}\t{VOCAB.detokenize(u.transcript)}\n"
    for i, u in enumerate(UTTS)
).encode("utf-8")


def feature_header(version=1, rows=1, cols=1, tag=1) -> bytes:
    return b"FEAT" + struct.pack("<IIIB", version, rows, cols, tag)


def feature_file(features: np.ndarray) -> bytes:
    rows, cols = features.shape
    return feature_header(rows=rows, cols=cols) + features.astype("<f4").tobytes()


FEATURES = feature_file(UTTS[0].features)
U32 = st.integers(min_value=0, max_value=2**32 - 1)
# a header with any sizes, then a short payload
SIZED_FEATURES = st.builds(
    lambda header, payload: header + payload,
    st.builds(feature_header, st.sampled_from([1, 2]), U32, U32, st.sampled_from([1, 0])),
    st.binary(max_size=64),
)


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("input_fuzz")


def damaged(valid: bytes):
    """Random bytes, or a prefix of ``valid``."""
    return st.one_of(
        st.binary(max_size=300),
        st.integers(min_value=0, max_value=len(valid)).map(lambda cut: valid[:cut]),
    )


def write(root, name: str, contents: bytes) -> str:
    path = root / name
    path.write_bytes(contents)
    return str(path)


def run_cli(*argv) -> int:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), (code, lines)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1, lines
        match = re.fullmatch(r"error kind=(usage|data|numeric) msg=(.*)", lines[0])
        assert match, lines
        json.loads(match.group(2))
    return code


@fuzz
@given(contents=damaged(MANIFEST))
@example(contents=b"\xff")
def test_stats_manifest(root, contents):
    run_cli("stats", "--manifest", write(root, "manifest.tsv", contents))


@fuzz
@given(ref=damaged(ALIGN_REF), hyp=damaged(ALIGN_HYP))
@example(ref=ALIGN_REF[:-2], hyp=ALIGN_HYP)  # cuts "é" in half
@example(ref=ALIGN_REF, hyp=b"\xff")
def test_align(root, ref, hyp):
    run_cli("align", write(root, "ref.txt", ref), write(root, "hyp.txt", hyp))


@fuzz
@given(contents=damaged(METRICS))
@example(contents=METRICS[:-5])
def test_report_metrics(root, contents):
    metrics = write(root, "metrics.jsonl", contents)
    run_cli("report", "--metrics", metrics, "--out", str(root / "report"))


# the fields report reads, each drawn as a value of the type EpochMetrics gives it
COUNTS = st.integers(min_value=0, max_value=10**6)
LOSSES = st.one_of(COUNTS, st.floats(allow_nan=False, allow_infinity=False))
READ_FIELDS = {
    "epoch": COUNTS, "joint_loss": LOSSES, "ctc_loss": st.one_of(st.none(), LOSSES),
    "att_loss": LOSSES, "blanks_inserted": COUNTS, "train_cer": st.one_of(st.none(), LOSSES),
}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    values=st.fixed_dictionaries(READ_FIELDS),
    field=st.sampled_from(sorted(READ_FIELDS)),
    wrong=st.one_of(st.booleans(), st.text(max_size=4)),
)
def test_report_reads_what_epoch_metrics_writes(root, values, field, wrong):
    record = EpochMetrics(
        **values, pathway_counts={"fuse": 1}, ctc_unreachable_ids=[], nbest_incomplete=0,
        utterances=1, wall_time_s=0.0,
    ).to_json_record()
    metrics = root / "typed.jsonl"
    argv = ["report", "--metrics", str(metrics), "--out", str(root / "typed_report")]
    metrics.write_text(record + "\n")
    assert run_cli(*argv) == 0
    metrics.write_text(json.dumps({**json.loads(record), field: wrong}) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 2
    assert f"{metrics}:1: missing or mistyped {field}" in err.getvalue()


def eval_hyp(root, features: bytes = FEATURES, vocab: bytes = VOCAB_FILE,
             manifest: bytes = EVAL_MANIFEST) -> int:
    """``eval --hyp`` on UTTS, with ``features`` as the first utterance's feature file."""
    write(root, "utt0.feat", features)
    for i, u in enumerate(UTTS[1:], start=1):
        write(root, f"utt{i}.feat", feature_file(u.features))
    hyps = "".join(
        f"{u.utt_id}\t0.0\t{' '.join(VOCAB.detokenize(u.transcript))}\n" for u in UTTS
    )
    return run_cli(
        "eval", "--hyp", write(root, "fuzz_hyp.tsv", hyps.encode("utf-8")),
        "--manifest", write(root, "fuzz_manifest.tsv", manifest),
        "--vocab", write(root, "fuzz_vocab.txt", vocab),
    )


@settings(derandomize=True, deadline=None, max_examples=150)
@given(contents=st.one_of(damaged(FEATURES), SIZED_FEATURES))
@example(contents=FEATURES)
@example(contents=feature_header(rows=2**32 - 1, cols=2**32 - 1) + b"\0" * 8)
def test_eval_feature_file(root, contents):
    eval_hyp(root, features=contents)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(contents=damaged(VOCAB_FILE))
@example(contents=VOCAB_FILE)
def test_eval_vocab_file(root, contents):
    eval_hyp(root, vocab=contents)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(contents=damaged(EVAL_MANIFEST))
@example(contents=EVAL_MANIFEST.replace(b"\n", b"\r\n"))
@example(contents=EVAL_MANIFEST.replace(b"\n", b"\r"))
@example(contents=EVAL_MANIFEST[:10] + b"\xff" + EVAL_MANIFEST[10:])
def test_eval_manifest(root, contents):
    assert eval_hyp(root, manifest=contents) in (0, 2)


def subcommand_flags() -> dict:
    """Subcommand -> (option actions, positional actions) of the CLI's own parser."""
    parser = _build_parser()
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    out = {}
    for name, subparser in sub.choices.items():
        actions = [a for a in subparser._actions if not isinstance(a, argparse._HelpAction)]
        out[name] = (
            [a for a in actions if a.option_strings],
            [a for a in actions if not a.option_strings],
        )
    return out


FLAGS = subcommand_flags()
POOL = ("", "-1", "0", "1", "1e300", "nan", "word", "MISSING", "DIR", "GARBAGE")


@pytest.mark.parametrize("command", sorted(FLAGS))
@settings(derandomize=True, deadline=None, max_examples=40)
@given(data=st.data())
def test_random_flags(root, command, data):
    options, positionals = FLAGS[command]
    # a fresh working directory, so that outputs named by relative paths
    # ("word", "0", ...) land in it and no draw sees another's files
    work = root / "work"
    shutil.rmtree(work, ignore_errors=True)
    (work / "dir").mkdir(parents=True)
    places = {
        "MISSING": str(work / "missing"),
        "DIR": str(work / "dir"),
        "GARBAGE": write(work, "garbage.bin", b"\x00FEAT\xff\n{\"data\": 1\tx\n"),
    }

    def value():
        return places.get(v := data.draw(st.sampled_from(POOL)), v)

    argv = [command]
    chosen = st.lists(st.sampled_from(options), unique=True) if options else st.just([])
    for action in data.draw(chosen):
        argv.append(action.option_strings[-1])
        if action.nargs != 0:
            argv.append(value())
    argv += [value() for _ in range(data.draw(st.integers(0, len(positionals))))]
    cwd = os.getcwd()
    os.chdir(work)
    try:
        run_cli(*argv)
    finally:
        os.chdir(cwd)
