import itertools
import math

import numpy as np
import pytest

from ctcfuse import tensor as tz
from ctcfuse.alignment import GatingConfig
from ctcfuse.ctc import NBestList
from ctcfuse.data import SynthConfig, make_batches, synth_corpus
from ctcfuse.model import (
    MASK_VALUE,
    METHOD_BASELINE,
    METHOD_FUSION,
    METHOD_NBEST,
    METHODS,
    DecoderCache,
    EncoderOutput,
    FusionConfig,
    Model,
    ModelConfig,
    nbest_id_matrix,
    param_count,
    param_specs,
)
from ctcfuse.tensor import Tensor
from ctcfuse.training import TrainConfig, build_decoder_input

from oracles import (fused_embedding_reference, mha_reference, param_count_reference,
                     param_specs_reference)
from toy import toy_config

PAD = 3  # eos id in the reserved layout


def toy_model(vocab=8, method=METHOD_BASELINE, n=2, seed=0, dropout=0.0):
    cfg = toy_config(vocab_size=vocab)
    if dropout:
        cfg = ModelConfig(**{**cfg.__dict__, "dropout": dropout})
    fusion = FusionConfig(method=method, n=n, beam_width=max(n, 2))
    return Model(cfg, fusion, seed=seed)


def random_features(rng, batch, t_max, feat_dim=4):
    return rng.normal(size=(batch, t_max, feat_dim))


class TestEncode:
    def test_output_shape_contract(self):
        model = toy_model()
        rng = np.random.default_rng(0)
        for t in (6, 7, 9, 16):
            feats = random_features(rng, 2, t)
            enc = model.encode(feats, np.array([t, t]))
            expected = math.ceil(t / model.config.subsample_factor)
            assert enc.h_s.shape == (2, expected, model.config.d_model)

    def test_padding_invariance(self):
        # appending padded frames must leave states on real frames unchanged
        model = toy_model()
        rng = np.random.default_rng(1)
        t_real = 9
        feats = random_features(rng, 1, t_real)
        enc_alone = model.encode(feats, np.array([t_real]))
        padded = np.concatenate([feats, np.zeros((1, 7, 4))], axis=1)
        enc_padded = model.encode(padded, np.array([t_real]))
        real = math.ceil(t_real / model.config.subsample_factor)
        np.testing.assert_allclose(
            enc_alone.h_s.data[0, :real], enc_padded.h_s.data[0, :real], atol=1e-5
        )

    def test_batch_padding_matches_solo_run(self):
        model = toy_model()
        rng = np.random.default_rng(2)
        a = random_features(rng, 1, 12)
        b = random_features(rng, 1, 7)
        batch = np.zeros((2, 12, 4))
        batch[0] = a[0]
        batch[1, :7] = b[0]
        enc_batch = model.encode(batch, np.array([12, 7]))
        enc_b = model.encode(b, np.array([7]))
        real = math.ceil(7 / model.config.subsample_factor)
        np.testing.assert_allclose(
            enc_batch.h_s.data[1, :real], enc_b.h_s.data[0, :real], atol=1e-10
        )

    def test_deterministic_with_dropout_off(self):
        model = toy_model()
        rng = np.random.default_rng(3)
        feats = random_features(rng, 1, 8)
        a = model.encode(feats, np.array([8])).h_s.data
        b = model.encode(feats, np.array([8])).h_s.data
        assert a.tobytes() == b.tobytes()

    def test_float32_features_encode_like_their_float64_values(self):
        # feature files hold float32; the tensor layer computes in float64
        model = toy_model()
        feats = random_features(np.random.default_rng(4), 2, 9).astype(np.float32)
        a = model.encode(feats, np.array([9, 7])).h_s.data
        b = model.encode(feats.astype(np.float64), np.array([9, 7])).h_s.data
        assert a.dtype == np.float64
        assert a.tobytes() == b.tobytes()

    def test_too_short_input_rejected(self):
        model = toy_model()
        feats = np.zeros((1, 3, 4))
        with pytest.raises(ValueError, match="too short"):
            model.encode(feats, np.array([3]))

    def test_wrong_feature_dim_rejected(self):
        model = toy_model()
        with pytest.raises(ValueError, match="features"):
            model.encode(np.zeros((1, 8, 5)), np.array([8]))


class TestCtcHead:
    def test_rows_exponentiate_to_one(self):
        model = toy_model()
        rng = np.random.default_rng(4)
        enc = model.encode(random_features(rng, 2, 8), np.array([8, 8]))
        post = model.ctc_head(enc)
        sums = np.exp(post.data).sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_zero_head_gives_uniform(self):
        model = toy_model()
        model.params["ctc_head.w"].data[:] = 0.0
        model.params["ctc_head.b"].data[:] = 0.0
        rng = np.random.default_rng(5)
        enc = model.encode(random_features(rng, 1, 8), np.array([8]))
        post = model.ctc_head(enc)
        np.testing.assert_allclose(post.data, -np.log(model.config.vocab_size), atol=1e-12)

    def test_gradient_reaches_encoder(self):
        model = toy_model(vocab=6)
        rng = np.random.default_rng(6)
        feats = random_features(rng, 1, 6)
        checked = {
            name: model.params[name]
            for name in ("encoder.sub.conv1.w", "encoder.layer0.attn.q.w", "ctc_head.w")
        }

        def f():
            model.zero_grad()
            enc = model.encode(feats, np.array([6]))
            return (model.ctc_head(enc) * 0.1).sum()

        report = tz.grad_check(f, checked, step=1e-5, tolerance=1e-4)
        assert report["passed"], report


class TestEmbedTokens:
    def test_shape(self):
        model = toy_model()
        out = model.embed_tokens(np.array([[1, 2, 3]]))
        assert out.shape == (1, 3, model.config.d_model)

    def test_positional_delta_only(self):
        from ctcfuse.model import _sinusoidal_pe

        model = toy_model()
        out = model.embed_tokens(np.array([2, 2]))
        pe = _sinusoidal_pe(2, model.config.d_model)
        np.testing.assert_allclose(out.data[1] - out.data[0], pe[1] - pe[0], atol=1e-12)

    def test_blank_id_embeds_like_any_token(self):
        model = toy_model()
        out = model.embed_tokens(np.array([0]))
        expected = model.params["embed.table"].data[0] * math.sqrt(model.config.d_model)
        from ctcfuse.model import _sinusoidal_pe

        expected = expected + _sinusoidal_pe(1, model.config.d_model)[0]
        np.testing.assert_allclose(out.data[0], expected, atol=1e-12)


class TestFusion:
    """The per-row mix of reference and hypothesis embeddings in build_decoder_input.

    Every reference has 3 tokens. With ``t_l=1`` a 3-token hypothesis
    fuses at ``alpha``, a 2-token one replaces the reference input
    (alpha 1) and a 6-token one leaves plain teacher forcing (alpha 0).
    """

    def decoder_input(self, alpha, transcripts, hyps):
        vocab, corpus = synth_corpus(
            SynthConfig(vocab_size=5, count=len(transcripts), min_len=3, max_len=3,
                        feature_dim=4, seed=0)
        )
        cfg = TrainConfig(
            model=toy_config(vocab_size=vocab.size),
            fusion=FusionConfig(method=METHOD_FUSION, alpha=alpha),
            gating=GatingConfig(mode="absolute", t_l=1),
        )
        model = Model(cfg.model, cfg.fusion, seed=0)
        batch = make_batches(corpus, len(corpus))[0]
        batch.transcripts[:] = transcripts
        reachable = np.ones(len(transcripts), dtype=bool)
        dec = build_decoder_input(batch, model, cfg, vocab, hyps, reachable)
        return model, vocab, dec

    def test_alpha_zero_returns_reference_operand(self):
        transcripts = [(4, 5, 6), (7, 8, 4)]
        model, vocab, dec = self.decoder_input(0.5, transcripts, [(4,) * 6, (5,) * 6])
        assert dec.pathway_counts["ground_truth_only"] == 2
        expected = model.embed_tokens(np.array([[vocab.sos_id, *y] for y in transcripts]))
        assert dec.input_emb.data.tobytes() == expected.data.tobytes()

    def test_alpha_one_returns_hypothesis_operand(self):
        model, vocab, dec = self.decoder_input(0.5, [(4, 5, 6), (7, 8, 4)], [(6, 5, 4), (5, 7)])
        sos, eos = vocab.sos_id, vocab.eos_id
        y_rows = [[sos, 4, 5, 6], [sos, 7, 8, 4]]
        w_rows = [[sos, 6, 5, 4], [sos, 5, 7, eos]]  # the short hypothesis fitted with eos
        expected = fused_embedding_reference(model, vocab.pad_id, y_rows, w_rows, [0.5, 1.0])
        assert dec.input_emb.data.tobytes() == expected.tobytes()
        emb_w = model.embed_tokens(np.array(w_rows)).data
        np.testing.assert_array_equal(dec.input_emb.data[1], emb_w[1])

    def test_midpoint_is_elementwise_mean(self):
        model, vocab, dec = self.decoder_input(0.5, [(4, 5, 6), (7, 8, 4)], [(6, 5, 4), (4,) * 6])
        sos = vocab.sos_id
        emb_y = model.embed_tokens(np.array([[sos, 4, 5, 6], [sos, 7, 8, 4]])).data
        emb_w = model.embed_tokens(np.array([[sos, 6, 5, 4], [sos, 7, 8, 4]])).data
        np.testing.assert_allclose(dec.input_emb.data[0], (emb_y[0] + emb_w[0]) / 2.0)
        np.testing.assert_array_equal(dec.input_emb.data[1], emb_y[1])

    def test_gradient_flows_through_both_terms(self):
        # token 4 only in the reference, token 5 only in the hypothesis
        model, _, dec = self.decoder_input(0.3, [(4, 4, 4)], [(5, 5, 5)])
        table = model.params["embed.table"]
        model.zero_grad()
        dec.input_emb.sum().backward()
        scale = 3 * math.sqrt(model.config.d_model)  # three positions, scaled lookup
        np.testing.assert_allclose(table.grad[4], 0.7 * scale)
        np.testing.assert_allclose(table.grad[5], 0.3 * scale)


class TestNeModule:
    def make_nbest(self, seqs):
        scores = [-(i + 1.0) for i in range(len(seqs))]
        return NBestList(hypotheses=list(zip(seqs, scores)))

    def test_id_matrix_pads_and_repeats(self):
        nbest = self.make_nbest([(5, 6), (7,)])
        ids = nbest_id_matrix(nbest, n=3, max_len=4, pad_id=PAD)
        np.testing.assert_array_equal(
            ids, [[5, 6, PAD, PAD], [7, PAD, PAD, PAD], [7, PAD, PAD, PAD]]
        )

    def test_empty_nbest_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            nbest_id_matrix(NBestList(hypotheses=[]), 1, 2, PAD)

    def test_id_matrix_clips_to_max_len(self):
        nbest = self.make_nbest([(5, 6, 7), (8,)])
        ids = nbest_id_matrix(nbest, n=2, max_len=2, pad_id=PAD)
        np.testing.assert_array_equal(ids, [[5, 6], [8, PAD]])

    def test_single_hypothesis_is_plain_linear_map(self):
        model = toy_model(method=METHOD_NBEST, n=1)
        model.ne_encode = lambda x: x  # the projection ne_memory encodes
        rows = [(4, 5), (6, 4)]
        out = model.ne_memory([self.make_nbest([row]) for row in rows], pad_id=PAD)
        for i, row in enumerate(rows):
            emb = model.embed_tokens(np.array(row))
            manual = emb.data @ model.params["ne.proj.w"].data + model.params["ne.proj.b"].data
            np.testing.assert_allclose(out.data[i], manual, atol=1e-12)

    def test_memory_length_is_longest_of_first_n(self):
        for n in (1, 2, 3):
            model = toy_model(method=METHOD_NBEST, n=n)
            # the (n+1)-th hypothesis is the longest, and lies past the first n
            first = [(4 + k,) * (k + 1) for k in range(n)] + [(4,) * 9]
            nbests = [self.make_nbest(first), self.make_nbest([(5, 6)])]
            out = model.ne_memory(nbests, pad_id=PAD)
            assert out.shape == (2, max(n, 2), model.config.d_model)

    def test_memory_of_empty_hypotheses_has_length_one(self):
        model = toy_model(method=METHOD_NBEST, n=2)
        out = model.ne_memory([self.make_nbest([()])], pad_id=PAD)
        assert out.shape == (1, 1, model.config.d_model)

    def test_gradient_reaches_table_through_every_hypothesis(self):
        model = toy_model(method=METHOD_NBEST, n=2)
        # token 6 appears only in hypothesis 2
        nbest = self.make_nbest([(4, 5), (6, 5)])
        table = model.params["embed.table"]
        model.zero_grad()
        out = model.ne_memory([nbest], pad_id=PAD)
        out.sum().backward()
        assert np.any(table.grad[6] != 0.0)
        assert np.any(table.grad[4] != 0.0)

    def test_ne_encode_preserves_shape_and_is_deterministic(self):
        model = toy_model(method=METHOD_NBEST, n=2)
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3, model.config.d_model)))
        a = model.ne_encode(x)
        b = model.ne_encode(x)
        assert a.shape == x.shape
        assert a.data.tobytes() == b.data.tobytes()


class TestAttention:
    # widths of the test and desk models, and a head width whose scale 1/sqrt(6) rounds
    @pytest.mark.parametrize("d, heads", [(8, 2), (64, 4), (12, 2)], ids=["d8-h2", "d64-h4", "d12-h2"])
    def test_mha_bit_equal_to_composed_ops(self, d, heads):
        # BLAS picks kernels by shape and memory layout, and the composed ops
        # split heads by a plain reshape for one query or key position: sweep
        # both, shared and separate key rows, each bias, and self-attention
        # (one input, three projections), comparing outputs and every gradient
        rng = np.random.default_rng(23)
        model = Model(ModelConfig(d_model=d, num_heads=heads, vocab_size=5), FusionConfig())
        prefix = "encoder.layer0.attn"
        names = [f"{prefix}.{p}.{part}" for p in "qkvo" for part in "wb"]
        for name in names:
            model.params[name].data = rng.normal(size=model.params[name].shape)
        b = 4
        for lq, lk, bk, mask, shared in itertools.product(
            [1, 5], [1, 5, 7], [1, b], [None, "keys", "causal"], [False, True]
        ):
            if shared and (lq, bk) != (lk, b):
                continue
            bias = None
            if mask == "keys":
                real = rng.integers(1, lk + 1, size=bk)
                bias = np.where(np.arange(lk) < real[:, None], 0.0, MASK_VALUE)[:, None, None, :]
            elif mask == "causal":  # the last query sees every key, as after cached steps
                bias = np.triu(np.full((lq, lk), MASK_VALUE), k=1 + lk - lq)[None, None]
            data = [rng.normal(size=(b, lq, d)), rng.normal(size=(bk, lk, d))]
            g = rng.normal(size=(b, lq, d))
            results = []
            for side in (model._mha, lambda prefix, q_in, kv_in, bias:
                         mha_reference(model.params, prefix, heads, q_in, kv_in, bias)):
                model.zero_grad()
                q_in = Tensor(data[0], requires_grad=True)
                kv_in = q_in if shared else Tensor(data[1], requires_grad=True)
                out = side(prefix, q_in, kv_in, bias)
                (out * Tensor(g)).sum().backward()
                results.append([out.data, q_in.grad, kv_in.grad] + [model.params[n].grad for n in names])
            point = (lq, lk, bk, mask, shared)
            for what, new, ref in zip(["out", "q_in", "kv_in"] + names, *results):
                assert new.tobytes() == ref.tobytes(), (what, point)


class TestDecoder:
    def run_logits(self, model, ids, feats, ne_memory=None):
        enc = model.encode(feats, np.array([feats.shape[1]]))
        emb = model.embed_tokens(ids)
        return model.decoder_forward(emb, enc, ne_memory)

    def test_logits_shape(self):
        model = toy_model()
        rng = np.random.default_rng(7)
        logits = self.run_logits(model, np.array([[2, 4, 5]]), random_features(rng, 1, 8))
        assert logits.shape == (1, 3, model.config.vocab_size)

    def test_ne_memory_to_plain_model_rejected(self):
        model = toy_model()
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match="without"):
            self.run_logits(
                model,
                np.array([[2]]),
                random_features(rng, 1, 8),
                ne_memory=Tensor(np.zeros((1, 2, model.config.d_model))),
            )

    def test_missing_ne_memory_rejected(self):
        model = toy_model(method=METHOD_NBEST)
        rng = np.random.default_rng(9)
        with pytest.raises(ValueError, match="requires"):
            self.run_logits(model, np.array([[2]]), random_features(rng, 1, 8))

    def test_reduces_bitwise_to_plain_decoder(self):
        # copying the shared parameters from an N-best model into a plain one
        # must give bit-identical logits: the side branch is bypassed, not zeroed
        ne_model = toy_model(method=METHOD_NBEST, n=2, seed=3)
        plain = toy_model(method=METHOD_BASELINE, seed=4)
        for name, p in plain.params.items():
            p.data = ne_model.params[name].data.copy()
        rng = np.random.default_rng(10)
        feats = random_features(rng, 1, 8)
        ids = np.array([[2, 4]])
        mem = Tensor(np.zeros((1, 2, ne_model.config.d_model)))
        out_plain = self.run_logits(plain, ids, feats)
        out_ne = self.run_logits(ne_model, ids, feats, ne_memory=mem)
        assert out_plain.data.tobytes() != out_ne.data.tobytes()  # side branch is live
        assert (
            self.run_logits(plain, ids, feats).data.tobytes() == out_plain.data.tobytes()
        )

    def test_causality_probe(self):
        model = toy_model()
        rng = np.random.default_rng(11)
        feats = random_features(rng, 1, 8)
        ids = np.array([[2, 4, 5, 6]])
        base = self.run_logits(model, ids, feats).data.copy()
        enc = model.encode(feats, np.array([8]))
        emb = model.embed_tokens(ids)
        bumped = Tensor(emb.data.copy())
        bumped.data[0, 2, 0] += 1.0  # perturb one coordinate of position 2
        out = model.decoder_forward(bumped, enc).data
        np.testing.assert_allclose(out[0, :2], base[0, :2], atol=1e-6)
        assert np.max(np.abs(out[0, 2:] - base[0, 2:])) > 1e-3


    @pytest.mark.parametrize("method", [METHOD_BASELINE, METHOD_NBEST])
    def test_cached_steps_match_full_prefix(self, method):
        # one position per call with a cache of one-row encoder output and
        # memory, rows reordered between steps as beam search does, against
        # the full prefix with the encoder output and memory repeated per row
        model = toy_model(vocab=8, method=method, n=2, seed=5)
        rng = np.random.default_rng(13)
        feats = random_features(rng, 1, 12)
        enc = model.encode(feats, np.array([12]))
        mem = None
        if method == METHOD_NBEST:
            nbest = NBestList(hypotheses=[((4,), -0.5), ((5, 6), -1.0)])
            mem = model.ne_memory([nbest], PAD)

        def per_row(rows):
            enc_rows = EncoderOutput(
                h_s=Tensor(np.repeat(enc.h_s.data, rows, axis=0)),
                lengths=np.repeat(enc.lengths, rows),
                key_bias=np.repeat(enc.key_bias, rows, axis=0),
            )
            return enc_rows, None if mem is None else Tensor(np.repeat(mem.data, rows, axis=0))

        # before step t: an identity reorder, a reorder that repeats a row,
        # and two reorders with no step between, the second dropping a row
        schedule = {1: [[0, 1, 2]], 3: [[2, 0, 0]], 5: [[1, 2, 0], [2, 0]]}
        steps = 7
        seqs = rng.integers(0, 8, size=(3, steps))
        cache = DecoderCache()
        for t in range(steps):
            for parents in schedule.get(t, []):
                cache.reorder(parents)
                fresh = rng.integers(0, 8, size=(len(parents), steps - t))
                seqs = np.concatenate([seqs[parents, :t], fresh], axis=1)
            step = model.decoder_forward(
                model.embed_tokens(seqs[:, t : t + 1], t), enc, mem, cache=cache
            )
            enc_rows, mem_rows = per_row(seqs.shape[0])
            full = model.decoder_forward(model.embed_tokens(seqs[:, : t + 1]), enc_rows, mem_rows)
            assert step.shape == (seqs.shape[0], 1, model.config.vocab_size)
            np.testing.assert_allclose(step.data[:, 0], full.data[:, -1], rtol=1e-12, atol=1e-12)
        assert seqs.shape[0] == 2
        assert cache.length == steps

    def stepped_cache(self, rows=3):
        """A cache after one decoder step of ``rows`` hypotheses, the model and encoder output."""
        model = toy_model(vocab=8, seed=5)
        enc = model.encode(random_features(np.random.default_rng(13), 1, 12), np.array([12]))
        cache = DecoderCache()
        ids = np.arange(rows).reshape(rows, 1) + 4
        model.decoder_forward(model.embed_tokens(ids), enc, cache=cache)
        return model, enc, cache

    def test_identity_reorder_keeps_the_arrays(self):
        _, _, cache = self.stepped_cache()
        before = dict(cache._grown)
        cache.reorder([0, 1, 2])
        assert cache._grown.keys() == before.keys()
        for prefix, (k, v) in cache._grown.items():
            assert k is before[prefix][0] and v is before[prefix][1]

    def test_reorder_gathers_rows(self):
        _, _, cache = self.stepped_cache()
        before = dict(cache._grown)
        rows = [2, 0, 0, 1]
        cache.reorder(rows)
        for prefix, (k, v) in cache._grown.items():
            assert k.tobytes() == before[prefix][0][rows].tobytes()
            assert v.tobytes() == before[prefix][1][rows].tobytes()
        assert cache.length == 1

    def test_reorder_before_the_first_step_is_a_no_op(self):
        model, enc, _ = self.stepped_cache()
        ids = np.array([[4], [5]])
        fresh, reordered = DecoderCache(), DecoderCache()
        reordered.reorder([1, 0, 0])
        assert reordered._grown == {} and reordered.length == 0
        out_fresh = model.decoder_forward(model.embed_tokens(ids), enc, cache=fresh)
        out = model.decoder_forward(model.embed_tokens(ids), enc, cache=reordered)
        assert out.data.tobytes() == out_fresh.data.tobytes()

    def test_embedding_offset_continues_positions(self):
        model = toy_model()
        ids = np.array([[2, 4, 5, 6, 7]])
        whole = model.embed_tokens(ids).data
        assert model.embed_tokens(ids[:, 3:], 3).data.tobytes() == whole[:, 3:].tobytes()


def count_params(config: ModelConfig, fusion: FusionConfig) -> int:
    """Parameters a model of ``config`` and ``fusion`` holds, summed over ``param_specs``."""
    specs = param_specs(config, fusion.method == METHOD_NBEST, fusion.n)
    return sum(math.prod(shape) for shape in specs.values())


class TestCountParams:
    def test_deterministic(self):
        cfg = toy_config(vocab_size=9)
        fusion = FusionConfig()
        assert count_params(cfg, fusion) == count_params(cfg, fusion)

    def test_matches_constructed_model(self):
        model = toy_model(method=METHOD_NBEST, n=3)
        total = sum(p.data.size for p in model.params.values())
        assert count_params(model.config, model.fusion) == total

    def test_nbest_delta_closed_form(self):
        cfg = toy_config(vocab_size=9)
        n = 3
        base = count_params(cfg, FusionConfig(method=METHOD_BASELINE))
        ne = count_params(cfg, FusionConfig(method=METHOD_NBEST, n=n, beam_width=n))
        d, ffn = cfg.d_model, cfg.ffn_dim
        attn = 4 * (d * d + d)  # q, k, v, o projections
        norm = 2 * d
        ffn_params = d * ffn + ffn + ffn * d + d
        per_decoder_layer = attn + (2 * d * d + d)  # side attention + concat projection
        ne_module = (n * d * d + d) + cfg.ne_layers * (2 * norm + attn + ffn_params) + norm
        expected_delta = cfg.decoder_layers * per_decoder_layer + ne_module
        assert ne - base == expected_delta

    def test_width_scaling_order(self):
        small = ModelConfig(d_model=32, ffn_dim=64, vocab_size=50, num_heads=4)
        big = ModelConfig(d_model=64, ffn_dim=128, vocab_size=50, num_heads=4)
        r = count_params(big, FusionConfig()) / count_params(small, FusionConfig())
        assert 2.5 < r < 4.5  # linear layers quadruple, embeddings double

    def test_arithmetic_count_equals_the_specs(self):
        grid = itertools.product([4, 6, 8], [3, 16], [1, 3], [1, 2], [0, 1, 2], [3, 20], [2, 4], [1, 7, 8])
        for d, ffn, enc, dec, ne, vocab, factor, feat in grid:
            cfg = ModelConfig(d_model=d, num_heads=2, ffn_dim=ffn, encoder_layers=enc,
                              decoder_layers=dec, ne_layers=ne, vocab_size=vocab,
                              subsample_factor=factor, feature_dim=feat)
            for method, n in [(METHOD_BASELINE, 1), (METHOD_NBEST, 1), (METHOD_NBEST, 3)]:
                fusion = FusionConfig(method=method, n=n, beam_width=n)
                memory = method == METHOD_NBEST
                # the order of the items is the order of the init draws
                assert (list(param_specs(cfg, memory, n).items())
                        == list(param_specs_reference(cfg, memory, n).items()))
                count = param_count(cfg, memory, n)
                assert count == count_params(cfg, fusion) == param_count_reference(cfg, memory, n)

    def test_specs_cover_all_prefixes(self):
        specs = param_specs(toy_config(vocab_size=9), True, 2)
        prefixes = {name.split(".")[0] for name in specs}
        assert prefixes == {"embed", "encoder", "ctc_head", "decoder", "ne"}


class TestParamSpecs:
    def test_memory_stack_mirrors_the_encoder_stack(self):
        cfg = ModelConfig(**{**toy_config(9).__dict__, "encoder_layers": 3, "ne_layers": 3})
        specs = param_specs(cfg, True, 2)

        def stack(prefix):
            names = [name for name in specs if name.startswith((f"{prefix}.layer", f"{prefix}.ln"))]
            return [(name[len(prefix):], specs[name]) for name in names]

        assert len(stack("encoder")) == 3 * 16 + 2  # 16 names per block, 2 for the final norm
        assert stack("ne") == stack("encoder")


class TestFullModelGradients:
    @pytest.mark.parametrize("method", [METHOD_BASELINE, METHOD_NBEST])
    def test_decoder_path_gradients(self, method):
        model = toy_model(vocab=7, method=method, n=2, seed=1)
        rng = np.random.default_rng(12)
        feats = random_features(rng, 1, 6)
        ids = np.array([[2, 4, 5]])
        nbest = NBestList(hypotheses=[((4,), -0.5), ((5, 6), -1.0)])
        subset = {
            name: model.params[name]
            for name in model.params
            if name
            in (
                "embed.table",
                "decoder.layer0.self.q.w",
                "decoder.layer1.cross.v.w",
                "decoder.out.w",
                "decoder.layer0.nproj.w",
                "ne.proj.w",
                "ne.layer0.attn.o.w",
            )
            and name in model.params
        }

        def f():
            model.zero_grad()
            enc = model.encode(feats, np.array([6]))
            emb = model.embed_tokens(ids)
            mem = None
            if method == METHOD_NBEST:
                mem = model.ne_memory([nbest], PAD)
            logits = model.decoder_forward(emb, enc, mem)
            return (tz.log_softmax(logits, axis=-1) * 0.1).sum()

        report = tz.grad_check(f, subset, step=1e-5, tolerance=1e-4)
        assert report["passed"], report


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("n,beam_width", [(0, 5), (-5, -5)])
def test_fusion_config_needs_n_of_at_least_one(method, n, beam_width):
    """Every method takes ``n >= 1``, so ``beam_width >= n`` bounds the width too."""
    with pytest.raises(ValueError, match="n must be >= 1"):
        FusionConfig(method=method, n=n, beam_width=beam_width)
