"""Edge cases of ``tensor.load_tensors``, which reads each entry straight into its array.

Beside the property tests of ``test_checkpoint_fuzz.py``: an empty entry, a
size claim larger than the file, a read that comes back short, a repeated
entry name, bytes after the last entry, entries read into arrays the caller
gives, a save that copies no payload, and a saved desk checkpoint against
the reader that copied entries out of a whole-file ``bytes``
(``oracles.load_tensors_reference``).
"""

import os
import struct
import tracemalloc
import types

import numpy as np
import pytest

from ctcfuse import tensor as T
from ctcfuse.data import desk_synth_config, synth_corpus
from ctcfuse.model import METHOD_NBEST, Model
from ctcfuse.training import Adam, CheckpointError, desk_train_config, load_checkpoint, save_checkpoint

from oracles import load_tensors_reference


def test_zero_size_entries_round_trip(tmp_path):
    arrays = {"empty": np.zeros((0, 3)), "none": np.zeros(0, dtype=np.int64),
              "after": np.arange(4.0)}
    path = tmp_path / "empty.bin"
    T.save_tensors(path, arrays)
    loaded = T.load_tensors(path)
    for name, arr in arrays.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


def test_a_claim_beyond_the_file_is_refused_before_allocating(tmp_path, monkeypatch):
    name = b"huge"
    blob = (T._CONTAINER_MAGIC + struct.pack("<II", T._CONTAINER_VERSION, 1)
            + struct.pack("<I", len(name)) + name + struct.pack("<BI", 2, 2)
            + struct.pack("<2q", 10**6, 10**6))
    path = tmp_path / "inflated.bin"
    path.write_bytes(blob.ljust(100, b"\0"))
    asked = []
    real_empty = np.empty

    def watched_empty(shape, dtype=float):
        asked.append(shape)
        return real_empty(shape, dtype)

    monkeypatch.setattr(T.np, "empty", watched_empty)
    with pytest.raises(ValueError, match="truncated tensor container: expected payload of 'huge'"):
        T.load_tensors(path)
    assert asked == []


def test_a_short_read_is_refused(tmp_path, monkeypatch):
    path = tmp_path / "short.bin"
    T.save_tensors(path, {"x": np.ones(8)})
    path.write_bytes(path.read_bytes()[:-8])
    real_fstat = os.fstat
    # the size check passes, and the read then comes back short, as if the file shrank
    monkeypatch.setattr(T.os, "fstat", lambda fd: types.SimpleNamespace(st_size=real_fstat(fd).st_size + 8))
    with pytest.raises(ValueError, match="truncated tensor container: expected payload of 'x'"):
        T.load_tensors(path)


def test_a_repeated_entry_name_is_refused(tmp_path):
    path = tmp_path / "twice.bin"
    T.save_tensors(path, {"x": np.ones(2), "y": np.zeros(3)})
    blob = path.read_bytes()
    # the second entry renamed to the first: the header counts two entries, both named x
    path.write_bytes(blob.replace(struct.pack("<I", 1) + b"y", struct.pack("<I", 1) + b"x"))
    with pytest.raises(ValueError, match="repeats the entry 'x'"):
        T.load_tensors(path)


def test_bytes_after_the_last_entry_are_refused(tmp_path):
    path = tmp_path / "trailing.bin"
    T.save_tensors(path, {"x": np.ones(2)})
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="1 bytes after its last entry"):
        T.load_tensors(path)


def test_an_entry_of_the_given_shape_is_read_into_the_given_array(tmp_path, monkeypatch):
    path = tmp_path / "into.bin"
    T.save_tensors(path, {"w": np.arange(6.0).reshape(2, 3), "x": np.ones(2)})
    arena = np.full(8, -1.0)
    into = {"w": arena[:6].reshape(2, 3)}
    asked = []
    real_empty = np.empty

    def watched_empty(shape, dtype=float):
        asked.append(shape)
        return real_empty(shape, dtype)

    monkeypatch.setattr(T.np, "empty", watched_empty)
    loaded = T.load_tensors(path, into)
    monkeypatch.undo()
    assert loaded["w"] is into["w"] and arena.tolist() == [0, 1, 2, 3, 4, 5, -1, -1]
    assert asked == [(2,)]  # only x, which into does not name, gets an array of its own


def test_a_float32_payload_is_cast_into_the_given_array(tmp_path):
    path = tmp_path / "narrow.bin"
    narrow = np.array([[0.1, -2.5], [3e38, 1e-40]], dtype=np.float32)
    T.save_tensors(path, {"w": narrow})
    target = np.zeros((2, 2))
    loaded = T.load_tensors(path, {"w": target})
    assert loaded["w"] is target and target.dtype == np.float64
    assert target.tolist() == narrow.astype(np.float64).tolist()


def desk_checkpoint(tmp_path):
    """A fresh desk nbest_memory pair at ``tmp_path / "desk.ckpt"``."""
    vocab, _ = synth_corpus(desk_synth_config(seed=7))
    cfg = desk_train_config(vocab.size, method=METHOD_NBEST)
    model = Model(cfg.model, cfg.fusion, seed=cfg.seed)
    path = tmp_path / "desk.ckpt"
    save_checkpoint(path, model, Adam(model.params, cfg), cfg, vocab, epoch=1)
    return path


def test_an_entry_of_another_shape_leaves_the_given_array_untouched(tmp_path):
    path = tmp_path / "other.bin"
    T.save_tensors(path, {"w": np.arange(6.0)})
    target = np.full((2, 3), 7.0)
    loaded = T.load_tensors(path, {"w": target})
    assert loaded["w"] is not target and loaded["w"].tolist() == [0, 1, 2, 3, 4, 5]
    assert (target == 7.0).all()
    # in a checkpoint, the presence-and-shape check then refuses that entry
    path = desk_checkpoint(tmp_path)
    arrays = T.load_tensors(path)
    arrays["adam.v.ctc_head.w"] = arrays["adam.v.ctc_head.w"].reshape(-1)
    T.save_tensors(path, arrays)
    with pytest.raises(CheckpointError, match=r"adam\.v\.ctc_head\.w \(\d+,\) not \(64, \d+\)"):
        load_checkpoint(path)


def test_save_writes_each_payload_from_its_own_buffer(tmp_path):
    arrays = {"x": np.arange(100_000.0), "y": np.arange(100_000.0).reshape(100, 1000)}
    tracemalloc.start()
    try:
        T.save_tensors(tmp_path / "big.bin", arrays)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < arrays["x"].nbytes / 10, peak


def test_a_desk_checkpoint_loads_as_through_the_whole_file_reader(tmp_path):
    path = desk_checkpoint(tmp_path)
    reference = load_tensors_reference(path)
    # read as they come, and read into one arena as load_checkpoint reads them
    shapes = {name: arr.shape for name, arr in reference.items() if name != "adam.step"}
    arena = np.empty(sum(arr.size for name, arr in reference.items() if name != "adam.step"))
    for loaded in (T.load_tensors(path), T.load_tensors(path, T.views(arena, shapes))):
        assert list(loaded) == list(reference)
        for name, arr in reference.items():
            assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape
            assert loaded[name].tobytes() == arr.tobytes()
