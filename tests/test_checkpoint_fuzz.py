"""Property tests for the checkpoint reader: damage is a CheckpointError, nothing else.

A damaged pair either still loads or raises ``CheckpointError`` naming its
path; under ``ctcfuse decode`` that is exit 0 or exit 2 with one error line.
Integers stay small so that a mutated size field cannot build a large model.
The tensor container reader alone raises ``ValueError`` and nothing else.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import struct
import tempfile
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ctcfuse.cli import main
from ctcfuse.data import SynthConfig, save_corpus, synth_corpus
from ctcfuse.model import METHOD_NBEST, FusionConfig, Model, ModelConfig
from ctcfuse.tensor import load_tensors, save_tensors
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


VOCAB, CORPUS = synth_corpus(
    SynthConfig(vocab_size=4, count=2, min_len=2, max_len=3, feature_dim=4, seed=3)
)
CFG = TrainConfig(
    model=ModelConfig(
        d_model=8, num_heads=2, ffn_dim=16, encoder_layers=1, decoder_layers=1,
        ne_layers=1, vocab_size=VOCAB.size, dropout=0.0, feature_dim=4,
    ),
    fusion=FusionConfig(method=METHOD_NBEST, n=2, beam_width=2),
)


def reference_arrays() -> dict:
    """The tensor container of a fresh N-best-memory pair, as ``save_checkpoint`` writes it."""
    model = Model(CFG.model, CFG.fusion, seed=1)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "ref.ckpt")
        save_checkpoint(path, model, Adam(model.params, CFG), CFG, VOCAB, epoch=1)
        return load_tensors(path)


# every entry of the reference checkpoint's tensor container
ENTRY_NAMES = sorted(reference_arrays())


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """A saved N-best-memory pair, its bytes, and a corpus it decodes."""
    root = tmp_path_factory.mktemp("ckpt_fuzz")
    manifest = save_corpus(root / "corpus", CORPUS, VOCAB)
    model = Model(CFG.model, CFG.fusion, seed=1)
    path = root / "ref.ckpt"
    save_checkpoint(path, model, Adam(model.params, CFG), CFG, VOCAB, epoch=1)
    blob = path.read_bytes()
    assert load_tensors(path).keys() == set(ENTRY_NAMES)
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


def decode_exits_0_or_2(reference, path):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([
            "decode", "--ckpt", str(path), "--manifest", str(reference["manifest"]),
            "--vocab", str(reference["root"] / "corpus" / "vocab.txt"),
            "--beam", "1", "--out", str(reference["root"] / "hyp.tsv"),
        ])
    lines = err.getvalue().splitlines()
    assert (code, lines) == (0, []) or (
        code == 2 and len(lines) == 1 and lines[0].startswith("error kind=data ")
    ), (code, lines)
    return lines


def test_intact_pair_decodes_every_utterance(reference):
    hyp = reference["root"] / "hyp.tsv"
    hyp.unlink(missing_ok=True)
    path = write_pair(reference, reference["blob"], mutated(reference["sidecar"], ("epoch",), 5))
    assert decode_exits_0_or_2(reference, path) == []
    ids = [line.split("\t")[0] for line in hyp.read_text().splitlines()]
    assert ids == [utt.utt_id for utt in CORPUS]


@settings(derandomize=True, deadline=None, max_examples=8)
@given(key=st.sampled_from(KEY_PATHS), value=st.one_of(st.just(DROP), SMALL_JSON))
def test_decode_exits_0_or_2(reference, key, value):
    path = write_pair(reference, reference["blob"], mutated(reference["sidecar"], key, value))
    decode_exits_0_or_2(reference, path)


# a sidecar value of the wrong JSON type, and what the one error line says about it
MISTYPED = [
    (("model_config", "ne_layers"), True, "invalid model_config: ne_layers must be int"),
    (("optimizer", "warmup_steps"), 80.5, "invalid optimizer: warmup_steps must be int"),
    (("format_version",), True, "format_version True unsupported"),
    (("format_version",), 1.0, "format_version 1.0 unsupported"),
    (("model_config", "d_model"), 8.0, "invalid model_config: d_model must be int"),
    (("fusion", "alpha"), "0.5", "invalid fusion: alpha must be float"),
    (("fusion", "n"), 2.0, "invalid fusion: n must be int"),
    (("optimizer", "lr_base"), "0.03", "invalid optimizer: lr_base must be float"),
]


@pytest.mark.parametrize("key,value,says", MISTYPED, ids=[
    f"{'.'.join(key)}={value!r}" for key, value, _ in MISTYPED
])
def test_mistyped_sidecar_value_is_a_data_error_naming_the_field(reference, key, value, says):
    path = write_pair(reference, reference["blob"], mutated(reference["sidecar"], key, value))
    lines = decode_exits_0_or_2(reference, path)
    assert len(lines) == 1 and says in json.loads(lines[0].partition(" msg=")[2]), lines


# the sidecar objects that hold a config, and the dataclass each is built as
SECTIONS = {"model_config": ModelConfig, "fusion": FusionConfig, "optimizer": TrainConfig}
CONFIG_KEYS = [path for path in KEY_PATHS if len(path) == 2 and path[0] in SECTIONS]
TEXT = st.text(max_size=4)
FRACTIONAL = st.floats(min_value=-1e6, max_value=1e6).filter(lambda x: x % 1)
# JSON values of a type other than each field type's
WRONG_TYPE = {
    int: st.one_of(st.booleans(), FRACTIONAL, TEXT),
    float: st.one_of(st.booleans(), TEXT),
    str: st.one_of(st.booleans(), SMALL_INTS, FRACTIONAL),
}


@fuzz
@given(data=st.data())
def test_mistyped_config_value_is_rejected_naming_the_key(reference, data):
    section, key = data.draw(st.sampled_from(CONFIG_KEYS))
    value = data.draw(WRONG_TYPE[typing.get_type_hints(SECTIONS[section])[key]])
    sidecar = mutated(reference["sidecar"], (section, key), value)
    path = write_pair(reference, reference["blob"], sidecar)
    with pytest.raises(CheckpointError, match=re.escape(f"invalid {section}: {key} must be ")):
        load_checkpoint(path)


def container(entries) -> bytes:
    """Tensor-container bytes with each ``(name, tag, shape, payload)`` written as given."""
    out = [b"TCNT", struct.pack("<II", 1, len(entries))]
    for name, tag, shape, payload in entries:
        encoded = name.encode("utf-8")
        out += [struct.pack("<I", len(encoded)), encoded, struct.pack("<BI", tag, len(shape)),
                struct.pack(f"<{len(shape)}q", *shape), payload]
    return b"".join(out)


@st.composite
def container_bytes(draw):
    """Random bytes, or a container whose headers need not match their payloads, maybe cut."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=128))
    entries = []
    for _ in range(draw(st.integers(0, 3))):
        shape = draw(st.lists(st.integers(-3, 4), max_size=3))
        # the payload of an 8-byte dtype, give or take a few bytes
        size = max(0, 8 * math.prod(shape) + draw(st.sampled_from([0, 0, -8, 8, -1])))
        payload = draw(st.binary(min_size=size, max_size=size))
        entries.append((draw(st.text(max_size=3)), draw(st.integers(0, 4)), shape, payload))
    blob = container(entries)
    return blob[: draw(st.integers(0, len(blob)))] if draw(st.booleans()) else blob


@settings(derandomize=True, deadline=None, max_examples=300)
@given(blob=container_bytes())
@example(blob=container([("a", 2, (-1,), b""), ("b", 2, (1,), bytes(8))]))
@example(blob=container([("a", 2, (-1000,), b""), ("b", 2, (1,), bytes(8))]))
@example(blob=container([("a", 2, (2**61, 4), b"")]))  # 2**63 elements: wraps in int64
def test_load_tensors_returns_arrays_or_raises_value_error(reference, blob):
    path = reference["root"] / "fuzz.tensors"
    path.write_bytes(blob)
    try:
        arrays = load_tensors(path)
    except ValueError:
        return
    assert all(min(arr.shape, default=0) >= 0 for arr in arrays.values())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    name=st.sampled_from(ENTRY_NAMES),
    shape=st.lists(st.integers(0, 3), max_size=3),
    dtype=st.sampled_from(["<f4", "<f8", "<i8"]),
    fill=st.integers(0, 2),
)
@example(name="adam.step", shape=[0], dtype="<i8", fill=0)
@example(name="adam.m.ctc_head.b", shape=[3], dtype="<f8", fill=0)
@example(name="adam.step", shape=[1], dtype="<i8", fill=2)  # a pair that loads
def test_entry_replaced_by_a_small_array(reference, name, shape, dtype, fill):
    path = reference["root"] / "damaged.ckpt"
    arrays = reference_arrays()
    arrays[name] = np.full(shape, fill, dtype=dtype)
    save_tensors(path, arrays)
    (reference["root"] / "damaged.ckpt.json").write_text(json.dumps(reference["sidecar"]))
    try:
        model, state, _ = load_checkpoint(path)
    except CheckpointError as err:
        assert str(path) in str(err)
    else:  # a pair that loads can train on: one optimizer step keeps every shape
        shapes = {key: p.shape for key, p in model.params.items()}
        Adam(model.params, CFG, state).step()
        assert {key: p.shape for key, p in model.params.items()} == shapes
    decode_exits_0_or_2(reference, path)
