"""Property tests for the checkpoint reader: damage is a CheckpointError, nothing else.

A damaged pair either still loads or raises ``CheckpointError`` naming its
path; under ``ctcfuse decode`` that is exit 0 or exit 2 with one error line.
Integers stay small so that a mutated size field cannot build a large model.
"""

import contextlib
import dataclasses
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcfuse.cli import main
from ctcfuse.data import SynthConfig, save_corpus, synth_corpus
from ctcfuse.model import METHOD_NBEST, FusionConfig, Model, ModelConfig
from ctcfuse.training import Adam, CheckpointError, TrainConfig, load_checkpoint, save_checkpoint

fuzz = settings(derandomize=True, deadline=None, max_examples=60)

# every key of a saved sidecar; test_key_paths_match_a_saved_sidecar keeps this list honest
KEY_PATHS = (
    [(key,) for key in ("epoch", "format_version", "fusion", "method", "model_config",
                        "optimizer", "vocab_hash")]
    + [("model_config", f.name) for f in dataclasses.fields(ModelConfig)]
    + [("fusion", f.name) for f in dataclasses.fields(FusionConfig)]
    + [("optimizer", key) for key in ("adam_eps", "beta1", "beta2", "lr_base", "warmup_steps")]
)

SMALL_INTS = st.integers(min_value=-2, max_value=64)
SMALL_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=6),
    SMALL_INTS,
    st.lists(SMALL_INTS, max_size=3),
    st.dictionaries(st.text(max_size=4), SMALL_INTS, max_size=2),
)
NOT_AN_OBJECT = st.one_of(
    st.none(), st.booleans(), st.text(max_size=6), SMALL_INTS, st.lists(SMALL_INTS, max_size=3)
)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A saved N-best-memory pair, its bytes, and a corpus it decodes."""
    root = tmp_path_factory.mktemp("ckpt_fuzz")
    vocab, corpus = synth_corpus(
        SynthConfig(vocab_size=4, count=2, min_len=2, max_len=3, feature_dim=4, seed=3)
    )
    manifest = save_corpus(root / "corpus", corpus, vocab)
    model_cfg = ModelConfig(
        d_model=8, num_heads=2, ffn_dim=16, encoder_layers=1, decoder_layers=1,
        ne_layers=1, vocab_size=vocab.size, dropout=0.0, feature_dim=4,
    )
    cfg = TrainConfig(model=model_cfg, fusion=FusionConfig(method=METHOD_NBEST, n=2, beam_width=2))
    model = Model(cfg.model, cfg.fusion, seed=1)
    path = root / "ref.ckpt"
    save_checkpoint(path, model, Adam(model.params, cfg), cfg, vocab, epoch=1)
    blob = path.read_bytes()
    sidecar = json.loads((root / "ref.ckpt.json").read_text())
    return {"root": root, "blob": blob, "sidecar": sidecar, "manifest": manifest}


def write_pair(reference, blob, sidecar):
    path = reference["root"] / "damaged.ckpt"
    path.write_bytes(blob)
    (reference["root"] / "damaged.ckpt.json").write_text(json.dumps(sidecar))
    return path


def loads(path) -> bool:
    """True if the pair loads; False if it raises a CheckpointError naming ``path``."""
    try:
        load_checkpoint(path)
    except CheckpointError as err:
        assert str(path) in str(err)
        return False
    return True


DROP = object()


def mutated(sidecar, path, value):
    """A deep copy of ``sidecar`` with the key at ``path`` dropped (``value`` DROP) or set."""
    out = json.loads(json.dumps(sidecar))
    *parents, key = path
    target = out
    for parent in parents:
        target = target[parent]
    if value is DROP:
        del target[key]
    else:
        target[key] = value
    return out


def test_key_paths_match_a_saved_sidecar(reference):
    found = []
    for key, value in reference["sidecar"].items():
        found.append((key,))
        if isinstance(value, dict):
            found += [(key, sub) for sub in value]
    assert sorted(found) == sorted(KEY_PATHS)


@fuzz
@given(data=st.data())
def test_truncated_container_is_rejected(reference, data):
    blob = reference["blob"]
    cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    assert not loads(write_pair(reference, blob[:cut], reference["sidecar"]))


@fuzz
@given(path=st.sampled_from(KEY_PATHS))
def test_dropped_sidecar_key(reference, path):
    loads(write_pair(reference, reference["blob"], mutated(reference["sidecar"], path, DROP)))


@fuzz
@given(path=st.sampled_from(KEY_PATHS), value=SMALL_JSON)
@example(path=("model_config", "num_heads"), value=0)  # d_model % num_heads
@example(path=("model_config", "d_model"), value=0)  # parameter init scale
def test_sidecar_key_set_to_small_value(reference, path, value):
    loads(write_pair(reference, reference["blob"], mutated(reference["sidecar"], path, value)))


@fuzz
@given(value=st.one_of(SMALL_JSON, st.floats(allow_nan=False, allow_infinity=False)))
@example(value=True)
@example(value="2")
@example(value=-1)
@example(value=0)
@example(value=2.0)
def test_epoch_loads_only_as_a_non_negative_int(reference, value):
    valid = isinstance(value, int) and not isinstance(value, bool) and value >= 0
    sidecar = mutated(reference["sidecar"], ("epoch",), value)
    assert loads(write_pair(reference, reference["blob"], sidecar)) == valid


def test_dropped_epoch_is_rejected(reference):
    path = write_pair(reference, reference["blob"], mutated(reference["sidecar"], ("epoch",), DROP))
    assert not loads(path)


@fuzz
@given(value=NOT_AN_OBJECT)
def test_sidecar_not_an_object_is_rejected(reference, value):
    assert not loads(write_pair(reference, reference["blob"], value))


@settings(derandomize=True, deadline=None, max_examples=8)
@given(key=st.sampled_from(KEY_PATHS), value=st.one_of(st.just(DROP), SMALL_JSON))
def test_decode_exits_0_or_2(reference, key, value):
    path = write_pair(reference, reference["blob"], mutated(reference["sidecar"], key, value))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "decode", "--ckpt", str(path), "--manifest", str(reference["manifest"]),
            "--beam", "1", "--out", str(reference["root"] / "hyp.tsv"),
        ])
    lines = err.getvalue().splitlines()
    assert (code, lines) == (0, []) or (
        code == 2 and len(lines) == 1 and lines[0].startswith("error kind=data ")
    ), (code, lines)
