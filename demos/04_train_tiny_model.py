"""End-to-end training on a synthetic corpus, one method per run.

The corpus is a monotonic transduction task: each token owns a fixed
prototype feature vector, repeated for a few frames with noise. A small
model overfits it quickly, which is all the desk scale asks for. Takes
about two minutes.
"""

import dataclasses
import time

from ctcfuse.data import SynthConfig, synth_corpus
from ctcfuse.model import METHOD_ALIGNED, METHOD_BASELINE
from ctcfuse.training import desk_train_config, train

synth = SynthConfig(
    vocab_size=8, count=60, min_len=2, max_len=5,
    min_frames_per_token=8, max_frames_per_token=12,
    noise=0.08, feature_dim=8, seed=11,
)
vocab, corpus = synth_corpus(synth)
print(f"corpus: {len(corpus)} utterances, vocabulary {vocab.size} "
      f"(4 reserved + {vocab.size - 4} characters)")

for method in (METHOD_BASELINE, METHOD_ALIGNED):
    cfg = dataclasses.replace(
        desk_train_config(vocab.size, method=method, seed=11),
        epochs=12, eval_every=4, batch_size=8,
    )
    print(f"\n== training method={method} ==")
    start = time.time()
    result = train(corpus, vocab, cfg, log=print)
    print(f"finished in {time.time() - start:.0f}s; "
          f"final train CER {result.history[-1].train_cer:.3f}")
    if method == METHOD_ALIGNED:
        first = result.history[0].blanks_inserted
        last = result.history[-1].blanks_inserted
        print(f"blanks inserted per epoch: {first} at epoch 1 -> {last} at the end")
        print("(the counter collapses once the CTC branch predicts lengths well)")
