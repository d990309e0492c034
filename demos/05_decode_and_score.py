"""Attention beam decoding, CTC+attention rescoring, and CER reports.

Trains a tiny model briefly, then decodes the same corpus both ways and
prints the evaluation table. About a minute.
"""

import dataclasses

from ctcfuse.data import SynthConfig, synth_corpus
from ctcfuse.decode import (DecodeConfig, attention_beam_decode, ctc_rescore_decode,
                            decode_utterance, evaluate)
from ctcfuse.training import desk_train_config, train

synth = SynthConfig(
    vocab_size=6, count=40, min_len=2, max_len=4,
    min_frames_per_token=8, max_frames_per_token=12,
    noise=0.08, feature_dim=8, seed=21,
)
vocab, corpus = synth_corpus(synth)
cfg = dataclasses.replace(
    desk_train_config(vocab.size, seed=21), epochs=10, eval_every=10, batch_size=8
)
print("training a small model...")
result = train(corpus, vocab, cfg)
model, final = result.model, result.history[-1]
print(f"train CER after {final.epoch} epochs: {final.train_cer:.3f}\n")

utt = corpus[0]
print(f"== one utterance ({utt.utt_id}), reference: {vocab.detokenize(utt.transcript)} ==")
for beam in (1, 4):
    hyp, score, finished = attention_beam_decode(
        utt.features, model, DecodeConfig(beam=beam), vocab
    )
    print(f"attention beam={beam}: '{vocab.detokenize(hyp)}' "
          f"(score {score:.3f}, finished={finished})")
for lam in (1.0, 0.3, 0.0):
    hyp, score = ctc_rescore_decode(
        utt.features, model, DecodeConfig(method="ctc_rescore", beam=5, lambda_dec=lam), vocab
    )
    print(f"ctc+rescore lambda={lam}: '{vocab.detokenize(hyp)}' (score {score:.3f})")

print("\n== corpus evaluation (attention, beam 4) ==")
beam4 = DecodeConfig(beam=4)
report = evaluate(corpus[:10], lambda utt: decode_utterance(utt, model, beam4, vocab)[0])
print(report.render_table())
