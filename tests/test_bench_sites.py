"""The benchmark's span sites still fire: each workload, run tiny, calls every name it expects.

``benchmarks/spans.py`` times the program by replacing functions at the
names their callers look up. A refactor that stops calling one of those
names leaves its span silent. This test installs the span recorder, runs
one small pass of each workload in ``benchmarks/workloads.py`` (both
imported unchanged), and checks each workload's ``expect`` and ``bypass``
lists.
"""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
SEED = 3


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCHMARKS))
    return spans, workloads


def run_tiny(workloads, workload):
    """One small pass of ``workload``: 16 utterances for training, one for decoding."""
    from ctcfuse import data, training
    from ctcfuse.model import Model

    if isinstance(workload, workloads.TrainWorkload):
        workload.run_pass(workload.setup(SEED, corpus_size=16))
        return
    vocab, corpus = data.synth_corpus(data.desk_synth_config(SEED))
    cfg = training.desk_train_config(vocab.size, workloads.METHOD_ALIGNED, seed=SEED)
    model = Model(cfg.model, cfg.fusion, seed=cfg.seed)  # untrained
    workload.run_pass(workloads.DecodeState(vocab, model, corpus[:1], corpus[:1]))


@pytest.mark.parametrize("name", ["train_aligned", "train_nbest", "decode"])
def test_workload_fires_its_spans(bench, name):
    spans, workloads = bench
    workload = workloads.WORKLOADS[name]
    tracer, patches = spans.Tracer(), spans.Patches()
    spans.install(tracer, patches)
    try:
        run_tiny(workloads, workload)
    finally:
        patches.restore()
    fired = {span for span, calls in tracer.calls.items() if calls}
    assert sorted(set(workload.expect) - fired) == []
    assert sorted(set(workload.bypass) & fired) == []
