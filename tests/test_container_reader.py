"""Edge cases of ``tensor.load_tensors``, which reads each entry straight into its array.

Beside the property tests of ``test_checkpoint_fuzz.py``: an empty entry, a
size claim larger than the file, a read that comes back short, a repeated
entry name, bytes after the last entry, and a saved
desk checkpoint against the reader that copied entries out of a whole-file
``bytes`` (``oracles.load_tensors_reference``).
"""

import os
import struct
import types

import numpy as np
import pytest

from ctcfuse import tensor as T
from ctcfuse.data import desk_synth_config, synth_corpus
from ctcfuse.model import METHOD_NBEST, Model
from ctcfuse.training import Adam, desk_train_config, save_checkpoint

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


def test_a_desk_checkpoint_loads_as_through_the_whole_file_reader(tmp_path):
    vocab, _ = synth_corpus(desk_synth_config(seed=7))
    cfg = desk_train_config(vocab.size, method=METHOD_NBEST)
    model = Model(cfg.model, cfg.fusion, seed=cfg.seed)
    path = tmp_path / "desk.ckpt"
    save_checkpoint(path, model, Adam(model.params, cfg), cfg, vocab, epoch=1)
    loaded, reference = T.load_tensors(path), load_tensors_reference(path)
    assert list(loaded) == list(reference)
    for name, arr in reference.items():
        assert loaded[name].dtype == arr.dtype and loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()
