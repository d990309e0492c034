"""Desk-scale joint CTC-attention transformer toolkit.

Training-time fusion of CTC hypotheses into the attention decoder
(plain fusion, edit-distance-aligned fusion, and an N-best side memory),
built on a small numpy autodiff engine with oracle-verified numerics.

Importing the package sizes the numeric thread pools before numpy loads:
a pool variable already set wins, else ``CTCFUSE_THREADS``, else 1.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, os.environ.get("CTCFUSE_THREADS") or "1")
del _var

# the imports below load numpy, so they come after the pins
from ctcfuse.alignment import GatingConfig, PathwayDecision, aef_align, cer, edit_distance, gate
from ctcfuse.ctc import NBestList, collapse, greedy_1best, prefix_beam_nbest
from ctcfuse.data import (
    Batch,
    SynthConfig,
    Utterance,
    Vocabulary,
    build_vocab,
    corpus_stats,
    desk_synth_config,
    load_corpus,
    make_batches,
    synth_corpus,
)
from ctcfuse.decode import DecodeConfig, attention_beam_decode, ctc_rescore_decode, evaluate
from ctcfuse.model import FusionConfig, Model, ModelConfig
from ctcfuse.tensor import Tensor, grad_check, load_tensors, save_tensors
from ctcfuse.training import (
    Adam,
    EpochMetrics,
    TrainConfig,
    desk_train_config,
    init_from_pretrained,
    joint_loss,
    load_checkpoint,
    save_checkpoint,
    train,
    train_epoch,
)

__all__ = [
    "Adam",
    "Batch",
    "DecodeConfig",
    "EpochMetrics",
    "FusionConfig",
    "GatingConfig",
    "Model",
    "ModelConfig",
    "NBestList",
    "PathwayDecision",
    "SynthConfig",
    "Tensor",
    "TrainConfig",
    "Utterance",
    "Vocabulary",
    "aef_align",
    "attention_beam_decode",
    "build_vocab",
    "cer",
    "collapse",
    "corpus_stats",
    "ctc_rescore_decode",
    "desk_synth_config",
    "desk_train_config",
    "edit_distance",
    "evaluate",
    "gate",
    "grad_check",
    "greedy_1best",
    "init_from_pretrained",
    "joint_loss",
    "load_checkpoint",
    "load_corpus",
    "load_tensors",
    "make_batches",
    "prefix_beam_nbest",
    "save_checkpoint",
    "save_tensors",
    "synth_corpus",
    "train",
    "train_epoch",
]
__version__ = "0.1.0"
