"""Property tests for the CLI's text inputs: damaged bytes end in an exit code, not a traceback.

Random bytes and truncated copies of valid files go to ``stats --manifest``,
to both files of ``align`` and to ``report --metrics``, through the
in-process ``cli.main``. Each run exits 0, 1 or 2; a non-zero exit prints
exactly one ``error kind=...`` line to stderr and a zero exit prints none.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcfuse.cli import main
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


def run_cli(*argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(list(argv))
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (code, lines)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1, lines
        match = re.fullmatch(r"error kind=(usage|data) msg=(.*)", lines[0])
        assert match, lines
        json.loads(match.group(2))


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
