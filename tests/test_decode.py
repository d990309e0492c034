import dataclasses
from itertools import product

import numpy as np
import pytest

from ctcfuse import decode as dec
from ctcfuse.ctc import prefix_beam_nbest
from ctcfuse.data import SynthConfig, synth_corpus, Utterance
from ctcfuse.decode import (
    DecodeConfig,
    attention_beam_decode,
    ctc_rescore_decode,
    decode_utterance,
    evaluate,
    format_hypothesis,
)
from ctcfuse.model import METHOD_ALIGNED, METHOD_NBEST, FusionConfig, Model
from ctcfuse.tensor import NumericError, Tensor
from ctcfuse.training import Adam, TrainConfig, train_epoch
from oracles import attention_beam_reference
from toy import toy_config


def _log_softmax(x):
    s = x - x.max(axis=-1, keepdims=True)
    return s - np.log(np.exp(s).sum(axis=-1, keepdims=True))


@pytest.fixture(scope="module")
def setup():
    """A briefly trained toy model so decoding is non-degenerate."""
    synth = SynthConfig(
        vocab_size=3, count=12, min_len=1, max_len=3,
        min_frames_per_token=8, max_frames_per_token=10,
        noise=0.05, feature_dim=4, seed=2,
    )
    vocab, corpus = synth_corpus(synth)
    cfg = TrainConfig(
        model=toy_config(vocab_size=vocab.size),
        epochs=6, batch_size=4, seed=2, lr_base=0.02, warmup_steps=20,
    )
    model = Model(cfg.model, cfg.fusion, seed=2)
    opt = Adam(model.params, cfg)
    for epoch in range(1, 7):
        train_epoch(corpus, vocab, model, opt, cfg, epoch)
    model.train(False)
    return vocab, corpus, model


class TestAttentionBeam:
    def test_beam_one_equals_stepwise_argmax(self, setup):
        vocab, corpus, model = setup
        cfg = DecodeConfig(beam=1)
        for utt in corpus[:4]:
            hyp, _, finished = attention_beam_decode(utt.features, model, cfg, vocab)
            # independent stepwise argmax
            enc = model.encode(utt.features[None].astype(np.float64), np.array([utt.num_frames]))
            toks: list[int] = []
            max_len = int(enc.lengths[0])
            for _ in range(max_len):
                ids = np.array([[vocab.sos_id] + toks])
                logits = model.decoder_forward(model.embed_tokens(ids), enc).data
                nxt = int(np.argmax(_log_softmax(logits[0, -1])))
                if nxt == vocab.eos_id:
                    break
                toks.append(nxt)
            assert hyp == tuple(toks)

    def test_wide_beam_equals_exhaustive_search(self, setup):
        vocab, corpus, model = setup
        utt = corpus[0]
        enc = model.encode(utt.features[None].astype(np.float64), np.array([utt.num_frames]))
        max_tokens = 3
        steps = max_tokens + 1  # the eos emission occupies one step
        cfg = DecodeConfig(beam=vocab.size**steps, max_len_factor=steps / int(enc.lengths[0]))
        hyp, score, finished = attention_beam_decode(utt.features, model, cfg, vocab)
        assert finished

        # enumerate every terminated output up to max_tokens, scoring
        # positions teacher-forced; normalize by length like the decoder does
        expandable = [k for k in range(vocab.size) if k != vocab.eos_id]
        best = None
        for length in range(0, max_tokens + 1):
            for seq in product(expandable, repeat=length):
                ids = np.array([[vocab.sos_id] + list(seq)])
                logits = model.decoder_forward(model.embed_tokens(ids), enc).data
                logp = _log_softmax(logits[0])
                total = sum(float(logp[i, tok]) for i, tok in enumerate(seq))
                total += float(logp[len(seq), vocab.eos_id])
                norm = total / (length + 1)
                if best is None or norm > best[1]:
                    best = (seq, norm)
        assert hyp == best[0]
        assert np.isclose(score, best[1], rtol=1e-10)

    def test_deterministic(self, setup):
        vocab, corpus, model = setup
        cfg = DecodeConfig(beam=4)
        a = attention_beam_decode(corpus[1].features, model, cfg, vocab)
        b = attention_beam_decode(corpus[1].features, model, cfg, vocab)
        assert a == b

    def test_monotone_in_beam_width(self, setup):
        # a wider beam never worsens the best terminated hypothesis; partials
        # lack the eos term so they are excluded from the comparison
        vocab, corpus, model = setup
        compared = 0
        for utt in corpus[:4]:
            scores = []
            for beam in (1, 2, 4, 8):
                cfg = DecodeConfig(beam=beam)
                _, score, finished = attention_beam_decode(utt.features, model, cfg, vocab)
                if finished:
                    scores.append(score)
            assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:])), scores
            compared += len(scores)
        assert compared >= 8

    def test_partial_flag_when_no_eos(self, setup):
        vocab, corpus, model = setup
        # cap output length at one token: eos rarely argmax that early for
        # longer utterances; force a tiny cap via factor
        utt = max(corpus, key=lambda u: len(u.transcript))
        enc_len = (utt.num_frames + 3) // 4
        cfg = DecodeConfig(beam=1, max_len_factor=1.0 / enc_len)
        hyp, _, finished = attention_beam_decode(utt.features, model, cfg, vocab)
        assert len(hyp) <= 1
        if not finished:
            assert len(hyp) == 1

    def test_huge_length_factor_stops_at_eos(self, setup, monkeypatch):
        # 1e308 times the frame count overflows to inf; the cap must not raise
        vocab, corpus, model = setup
        calls = []

        def all_mass_on_eos(self, input_emb, *args, **kwargs):
            calls.append(input_emb.shape)
            logits = np.full((*input_emb.shape[:2], vocab.size), -1e3)
            logits[..., vocab.eos_id] = 0.0
            return Tensor(logits)

        monkeypatch.setattr(Model, "decoder_forward", all_mass_on_eos)
        cfg = DecodeConfig(beam=1, max_len_factor=1e308)
        hyp, _, finished = attention_beam_decode(corpus[0].features, model, cfg, vocab)
        assert (hyp, finished, len(calls)) == ((), True, 1)


@pytest.fixture(scope="module")
def nbest_setup():
    """A briefly trained toy N-best-memory model and 12 utterances."""
    synth = SynthConfig(
        vocab_size=3, count=12, min_len=1, max_len=3,
        min_frames_per_token=8, max_frames_per_token=10,
        noise=0.05, feature_dim=4, seed=4,
    )
    vocab, corpus = synth_corpus(synth)
    cfg = TrainConfig(
        model=toy_config(vocab_size=vocab.size),
        fusion=FusionConfig(method=METHOD_NBEST, n=2, beam_width=3),
        epochs=4, batch_size=4, seed=4, lr_base=0.02, warmup_steps=20,
    )
    model = Model(cfg.model, cfg.fusion, seed=4)
    opt = Adam(model.params, cfg)
    for epoch in range(1, 5):
        train_epoch(corpus, vocab, model, opt, cfg, epoch)
    model.train(False)
    return vocab, corpus, model


@pytest.fixture(params=["plain", "nbest_memory"])
def either_setup(request, setup, nbest_setup):
    return setup if request.param == "plain" else nbest_setup


class TestIncrementalSearch:
    """The cached search against the full-recompute search it replaced."""

    @pytest.mark.parametrize("beam", [1, 3, 10])
    def test_matches_full_recompute_reference(self, either_setup, beam):
        vocab, corpus, model = either_setup
        cfg = DecodeConfig(beam=beam)
        assert len(corpus) >= 12
        for utt in corpus:
            hyp, score, finished = attention_beam_decode(utt.features, model, cfg, vocab)
            ref_hyp, ref_score, ref_finished = attention_beam_reference(
                utt.features, model, cfg, vocab
            )
            assert (hyp, finished) == (ref_hyp, ref_finished), utt.utt_id
            assert score == pytest.approx(ref_score, rel=1e-12, abs=0.0), utt.utt_id

    @pytest.mark.parametrize("beam", [1, 3, 10])
    def test_one_decoder_position_per_live_beam(self, either_setup, beam, monkeypatch):
        # the reference feeds the whole prefix of every live beam, so its
        # batch sizes are the live-beam counts of each step
        vocab, corpus, model = either_setup
        shapes = []
        original = Model.decoder_forward

        def recording(self, input_emb, *args, **kwargs):
            shapes.append(input_emb.shape[:2])
            return original(self, input_emb, *args, **kwargs)

        monkeypatch.setattr(Model, "decoder_forward", recording)
        cfg = DecodeConfig(beam=beam)
        for utt in corpus[:6]:
            shapes.clear()
            attention_beam_reference(utt.features, model, cfg, vocab)
            live_per_step = [rows for rows, _ in shapes]
            shapes.clear()
            attention_beam_decode(utt.features, model, cfg, vocab)
            assert shapes == [(rows, 1) for rows in live_per_step]


class TestTiedCandidates:
    """With a zero output layer every candidate of a step ties, so only the tie-break ranks them."""

    @pytest.mark.parametrize("method", [METHOD_ALIGNED, METHOD_NBEST])
    @pytest.mark.parametrize("beam", [1, 3, 10])
    def test_matches_reference_on_ties(self, setup, method, beam):
        vocab, corpus, _ = setup
        fusion = FusionConfig(method=method, n=2, beam_width=3)
        model = Model(toy_config(vocab_size=vocab.size), fusion, seed=6)
        for name in ("decoder.out.w", "decoder.out.b"):
            model.params[name].data[...] = 0.0
        cfg = DecodeConfig(beam=beam)
        for utt in corpus[:4]:
            got = attention_beam_decode(utt.features, model, cfg, vocab)
            want = attention_beam_reference(utt.features, model, cfg, vocab)
            assert got[0] == want[0] and got[2] == want[2], utt.utt_id
            assert float(got[1]).hex() == float(want[1]).hex(), utt.utt_id


class TestFpGuard:
    """Decoding relies on numpy's floating-point flags, not a scan of every op's output."""

    @pytest.mark.parametrize("beam", [1, 3])
    def test_decode_scans_no_op_output(self, either_setup, beam, monkeypatch):
        vocab, corpus, model = either_setup
        calls = []
        original = np.isfinite

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counting)
        attention_beam_decode(corpus[0].features, model, DecodeConfig(beam=beam), vocab)
        # the features' check; a scan per op would count in the hundreds
        assert 1 <= len(calls) <= 2

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    def test_non_finite_features_raise(self, either_setup, value):
        vocab, corpus, model = either_setup
        cfg = DecodeConfig(beam=2)
        bad = corpus[0].features.copy()
        bad[3, 1] = value
        for decoder in (attention_beam_decode, ctc_rescore_decode):
            with pytest.raises(FloatingPointError, match="non-finite input features"):
                decoder(bad, model, cfg, vocab)
        # Utterance rejects such features, so they go in after construction
        utt = dataclasses.replace(corpus[0], features=corpus[0].features.copy())
        utt.features[3, 1] = value
        for method, nbest in product(("attention", "ctc_rescore"), (0, 2)):
            with pytest.raises(NumericError, match=f"^utterance {utt.utt_id}: non-finite"):
                decode_utterance(utt, model, DecodeConfig(method=method, beam=2), vocab, nbest)


class TestRescore:
    def test_lambda_one_is_pure_ctc_top1(self, setup):
        vocab, corpus, model = setup
        utt = corpus[2]
        cfg = DecodeConfig(method="ctc_rescore", beam=4, lambda_dec=1.0)
        hyp, score = ctc_rescore_decode(utt.features, model, cfg, vocab)
        enc = model.encode(utt.features[None].astype(np.float64), np.array([utt.num_frames]))
        log_probs = model.ctc_head(enc).data
        nbest = prefix_beam_nbest(log_probs, enc.lengths, vocab.blank_id, 4, 4)[0]
        assert hyp == nbest.hypotheses[0][0]
        assert np.isclose(score, nbest.hypotheses[0][1], rtol=1e-12)

    def test_lambda_zero_is_attention_rerank(self, setup):
        vocab, corpus, model = setup
        utt = corpus[2]
        cfg = DecodeConfig(method="ctc_rescore", beam=4, lambda_dec=0.0)
        hyp, score = ctc_rescore_decode(utt.features, model, cfg, vocab)
        enc = model.encode(utt.features[None].astype(np.float64), np.array([utt.num_frames]))
        log_probs = model.ctc_head(enc).data
        nbest = prefix_beam_nbest(log_probs, enc.lengths, vocab.blank_id, 4, 4)[0]
        # independent per-candidate teacher-forced scoring
        best = None
        for seq, _ in nbest.hypotheses:
            ids = np.array([[vocab.sos_id] + list(seq)])
            logits = model.decoder_forward(model.embed_tokens(ids), enc).data
            logp = _log_softmax(logits[0])
            tgt = list(seq) + [vocab.eos_id]
            total = sum(float(logp[i, t]) for i, t in enumerate(tgt))
            if best is None or total > best[1]:
                best = (seq, total)
        assert hyp == best[0]
        assert np.isclose(score, best[1], rtol=1e-10)

    def test_interpolated_argmax_matches_independent_oracle(self, setup):
        vocab, corpus, model = setup
        utt = corpus[3]
        lam = 0.3
        cfg = DecodeConfig(method="ctc_rescore", beam=5, lambda_dec=lam)
        hyp, score = ctc_rescore_decode(utt.features, model, cfg, vocab)
        enc = model.encode(utt.features[None].astype(np.float64), np.array([utt.num_frames]))
        log_probs = model.ctc_head(enc).data
        nbest = prefix_beam_nbest(log_probs, enc.lengths, vocab.blank_id, 5, 5)[0]
        best = None
        for seq, ctc_score in nbest.hypotheses:
            ids = np.array([[vocab.sos_id] + list(seq)])
            logits = model.decoder_forward(model.embed_tokens(ids), enc).data
            logp = _log_softmax(logits[0])
            tgt = list(seq) + [vocab.eos_id]
            att = sum(float(logp[i, t]) for i, t in enumerate(tgt))
            combined = lam * ctc_score + (1 - lam) * att
            if best is None or combined > best[1]:
                best = (seq, combined)
        assert hyp == best[0]
        assert np.isclose(score, best[1], rtol=1e-10)


class TestNeDecode:
    def test_nbest_model_decodes(self):
        synth = SynthConfig(
            vocab_size=3, count=6, min_len=1, max_len=2,
            min_frames_per_token=8, max_frames_per_token=9,
            noise=0.05, feature_dim=4, seed=5,
        )
        vocab, corpus = synth_corpus(synth)
        cfg = TrainConfig(
            model=toy_config(vocab_size=vocab.size),
            fusion=FusionConfig(method=METHOD_NBEST, n=2, beam_width=3),
            epochs=1, batch_size=3, seed=5,
        )
        model = Model(cfg.model, cfg.fusion, seed=5)
        opt = Adam(model.params, cfg)
        train_epoch(corpus, vocab, model, opt, cfg, 1)
        model.train(False)
        hyp, _, _ = attention_beam_decode(corpus[0].features, model, DecodeConfig(beam=2), vocab)
        assert isinstance(hyp, tuple)
        hyp2, _ = ctc_rescore_decode(corpus[0].features, model, DecodeConfig(method="ctc_rescore", beam=3), vocab)
        assert isinstance(hyp2, tuple)


class TestEvaluate:
    def make_corpus(self):
        rng = np.random.default_rng(0)
        refs = [(4, 5, 6, 4), (4, 6), (5, 5, 5)]
        return [
            Utterance(
                utt_id=f"u{i}",
                features=rng.normal(size=(8, 4)).astype(np.float32),
                transcript=ref,
            )
            for i, ref in enumerate(refs)
        ]

    def test_perfect_decoder_gives_zero(self):
        corpus = self.make_corpus()
        report = evaluate(corpus, lambda utt: utt.transcript)
        assert report.corpus_cer == 0.0
        assert all(r.cer == 0.0 for r in report.records)

    def test_empty_decoder_gives_one(self):
        corpus = self.make_corpus()
        report = evaluate(corpus, lambda utt: ())
        assert report.corpus_cer == 1.0

    def test_known_edit_totals(self):
        corpus = self.make_corpus()
        hyps = {
            "u0": (4, 6, 4),      # one deletion
            "u1": (4, 5, 5),      # one insertion + one substitution
            "u2": (5, 5, 5),      # exact
        }
        report = evaluate(corpus, lambda utt: hyps[utt.utt_id])
        assert report.total_edits == 3
        assert report.total_ref_len == 9
        assert np.isclose(report.corpus_cer, 3 / 9)
        by_id = {r.utt_id: r for r in report.records}
        assert by_id["u0"].dels == 1 and by_id["u0"].subs == 0
        assert by_id["u1"].ins + by_id["u1"].subs == 2 and by_id["u1"].cer == 1.0
        assert by_id["u2"].cer == 0.0

    def test_corpus_cer_is_edit_weighted_not_mean_of_rates(self):
        corpus = self.make_corpus()
        hyps = {"u0": (4, 5, 6, 4), "u1": (), "u2": (5, 5, 5)}
        report = evaluate(corpus, lambda utt: hyps[utt.utt_id])
        assert np.isclose(report.corpus_cer, 2 / 9)  # not (0 + 1 + 0) / 3

    def test_report_formats(self):
        corpus = self.make_corpus()
        report = evaluate(corpus, lambda utt: utt.transcript)
        table = report.render_table()
        assert "corpus CER 0.0000" in table
        lines = report.to_jsonl().splitlines()
        assert len(lines) == 4
        assert '"summary": true' in lines[-1]

    @pytest.mark.parametrize("method", dec.DECODE_METHODS)
    def test_decode_utterance(self, either_setup, method, monkeypatch):
        vocab, corpus, model = either_setup
        # the N-best-memory model searches width 3 for its memory, so with
        # nbest <= beam every list reads one search
        cfg = DecodeConfig(method=method, beam=3)
        assert not model.uses_ne_memory or model.fusion.beam_width == cfg.beam
        decoder = {"attention": attention_beam_decode, "ctc_rescore": ctc_rescore_decode}[method]
        head, search = Model.ctc_head, dec.prefix_beam_nbest
        heads, widths = [], []

        def counting_head(self, enc):
            heads.append(1)
            return head(self, enc)

        def counting_search(log_probs, lengths, blank_id, beam_width, n):
            widths.append(beam_width)
            return search(log_probs, lengths, blank_id, beam_width, n)

        monkeypatch.setattr(Model, "ctc_head", counting_head)
        monkeypatch.setattr(dec, "prefix_beam_nbest", counting_search)
        reads_ctc = model.uses_ne_memory or method == "ctc_rescore"
        for utt in corpus[:3]:
            tokens, score = decoder(utt.features, model, cfg, vocab)[:2]
            enc = model.encode(utt.features[None], np.array([utt.num_frames]))
            log_probs = head(model, enc).data
            for k in (0, 1, cfg.beam, cfg.beam + 2):
                heads.clear()
                widths.clear()
                got_tokens, got_score, nbest = decode_utterance(utt, model, cfg, vocab, nbest=k)
                assert (got_tokens, got_score.hex()) == (tokens, score.hex())
                # one CTC head, and none when nothing reads the posterior
                assert len(heads) == int(reads_ctc or k > 0)
                # one search per width
                if k <= cfg.beam:
                    assert len(widths) == int(reads_ctc or k > 0)
                else:
                    assert sorted(widths) == [cfg.beam] * reads_ctc + [k]
                if not k:
                    assert nbest is None
                    continue
                want = search(log_probs, enc.lengths, vocab.blank_id, max(cfg.beam, k), k)[0]
                assert nbest == want
                assert [s.hex() for _, s in nbest.hypotheses] == [
                    s.hex() for _, s in want.hypotheses
                ]
        report = evaluate(corpus[:3], lambda utt: decode_utterance(utt, model, cfg, vocab)[0])
        public = evaluate(corpus[:3], lambda utt: decoder(utt.features, model, cfg, vocab)[0])
        assert report == public
        if not model.uses_ne_memory:  # the briefer-trained memory model inserts freely
            assert 0.0 <= report.corpus_cer <= 1.5


class TestFormatting:
    def test_hypothesis_line(self, setup):
        vocab, _, _ = setup
        line = format_hypothesis("utt9", (4, 5), -1.25, vocab)
        parts = line.split("\t")
        assert parts[0] == "utt9"
        assert float(parts[1]) == -1.25
        assert parts[2] == f"{vocab.id_to_token[4]} {vocab.id_to_token[5]}"
