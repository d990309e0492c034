import dataclasses
import json
import math
import re

import numpy as np
import pytest

from ctcfuse.alignment import GatingConfig, PathwayDecision
from ctcfuse.ctc import ctc_loss_op
from ctcfuse.data import SynthConfig, Utterance, build_vocab, synth_corpus
from ctcfuse.model import (
    METHOD_ALIGNED,
    METHOD_BASELINE,
    METHOD_FUSION,
    METHOD_NBEST,
    DecoderCache,
    FusionConfig,
    Model,
)
from ctcfuse import tensor as tz
from ctcfuse.tensor import Tensor, load_tensors, save_tensors
from ctcfuse import training as tr
from ctcfuse.training import (
    Adam,
    CheckpointError,
    NumericError,
    TrainConfig,
    build_decoder_input,
    compute_ctc_hypotheses,
    desk_train_config,
    init_from_pretrained,
    joint_loss,
    load_checkpoint,
    lr_schedule,
    run_training_step,
    save_checkpoint,
    smoothed_cross_entropy,
    train,
    train_epoch,
)

from oracles import adam_step, fused_embedding_reference
from toy import toy_config


def tiny_setup(method=METHOD_BASELINE, seed=3, count=8, **fusion_kw):
    synth = SynthConfig(
        vocab_size=5,
        count=count,
        min_len=2,
        max_len=4,
        min_frames_per_token=8,
        max_frames_per_token=10,
        noise=0.05,
        feature_dim=4,
        seed=seed,
    )
    vocab, corpus = synth_corpus(synth)
    model_cfg = toy_config(vocab_size=vocab.size)
    fusion = FusionConfig(method=method, **fusion_kw)
    cfg = TrainConfig(
        model=model_cfg,
        fusion=fusion,
        gating=GatingConfig(mode="absolute", t_l=2),
        epochs=2,
        batch_size=4,
        seed=seed,
        eval_every=100,
        lr_base=0.02,
        warmup_steps=10,
    )
    return vocab, corpus, cfg


class TestJointLoss:
    def test_endpoints_and_midpoint(self):
        ctc = Tensor(np.asarray(2.0))
        att = Tensor(np.asarray(1.0))
        assert joint_loss(ctc, att, 0.0).item() == 1.0
        assert joint_loss(ctc, att, 1.0).item() == 2.0
        assert np.isclose(joint_loss(ctc, att, 0.3).item(), 1.3)

    def test_non_finite_named(self):
        with pytest.raises(NumericError, match="CTC"):
            joint_loss(Tensor(np.asarray(np.inf)), Tensor(np.asarray(1.0)), 0.3)
        with pytest.raises(NumericError, match="attention"):
            joint_loss(Tensor(np.asarray(1.0)), Tensor(np.asarray(np.nan)), 0.3)


class TestSchedule:
    def test_peak_exactly_at_warmup(self):
        values = [lr_schedule(1.0, s, 50) for s in range(1, 200)]
        assert int(np.argmax(values)) + 1 == 50

    def test_warmup_is_linear(self):
        assert np.isclose(lr_schedule(1.0, 10, 100), 10 * 100**-1.5)

    def test_decay_is_inverse_sqrt(self):
        assert np.isclose(lr_schedule(2.0, 400, 100), 2.0 * 400**-0.5)


class TestAdam:
    def test_zero_grad_leaves_params_but_decays_moments(self):
        p = np.array([1.0, -2.0])
        m = np.array([0.5, 0.5])
        v = np.array([0.25, 0.25])
        p2, m2, v2 = adam_step(p, np.zeros(2), m, v, step=5, lr=0.0, beta1=0.9, beta2=0.99)
        np.testing.assert_array_equal(p2, p)
        np.testing.assert_allclose(m2, 0.9 * m)
        np.testing.assert_allclose(v2, 0.99 * v)

    def test_quadratic_bowl_converges(self):
        w = np.array([1.0])
        m = np.zeros(1)
        v = np.zeros(1)
        for step in range(1, 501):
            grad = 2.0 * w
            w, m, v = adam_step(w, grad, m, v, step, lr=0.05)
        assert abs(w[0]) < 1e-3

    def test_optimizer_updates_and_none_grad_is_zero(self):
        params = {"a": Tensor(np.ones(2), requires_grad=True),
                  "b": Tensor(np.ones(2), requires_grad=True)}
        cfg = TrainConfig(model=toy_config(vocab_size=5))
        opt = Adam(params, cfg)
        params["a"].grad = np.ones(2)
        opt.step()
        assert not np.allclose(params["a"].data, 1.0)
        np.testing.assert_array_equal(params["b"].data, np.ones(2))

    def test_in_place_steps_are_bit_equal_to_the_reference(self):
        cfg = desk_train_config(vocab_size=12, method=METHOD_ALIGNED)
        model = Model(cfg.model, cfg.fusion, seed=0)
        opt = Adam(model.params, cfg)
        ref = {name: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
               for name, p in model.params.items()}
        # from step 11 on one parameter has no gradient: its moments carry it
        no_grad = sorted(model.params)[0]
        rng = np.random.default_rng(4)
        for step in range(1, 21):
            if step == 11:
                before = model.params[no_grad].data.copy()
            for name, p in model.params.items():
                # gradients spanning several magnitudes, as in training
                scale = 10.0 ** rng.integers(-6, 2)
                p.grad = None if name == no_grad and step > 10 else rng.normal(size=p.shape) * scale
            lr = opt.step()
            for name, p in model.params.items():
                grad = np.zeros_like(p.data) if p.grad is None else p.grad
                param, m, v = ref[name]
                ref[name] = adam_step(param, grad, m, v, step, lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
                assert np.array_equal(p.data, ref[name][0]), (step, name)
        assert not np.array_equal(model.params[no_grad].data, before)
        assert opt.step_count == 20
        assert opt.m.keys() == opt.v.keys() == ref.keys()
        for name, (_, m, v) in ref.items():
            assert np.array_equal(opt.m[name], m) and np.array_equal(opt.v[name], v), name


class TestSmoothedCrossEntropy:
    def test_masked_positions_contribute_nothing(self):
        rng = np.random.default_rng(0)
        logits = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
        targets = np.array([[1, 2, 4], [0, 4, 4]])
        mask = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        loss = smoothed_cross_entropy(logits, targets, mask, 0.1)
        bumped = Tensor(logits.data.copy())
        bumped.data[0, 2, :] += 5.0
        bumped.data[1, 1, :] -= 3.0
        loss2 = smoothed_cross_entropy(bumped, targets, mask, 0.1)
        assert loss.item() == loss2.item()

    def test_masked_positions_zero_gradient(self):
        rng = np.random.default_rng(1)
        logits = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
        targets = np.array([[1, 2, 3]])
        mask = np.array([[1.0, 0.0, 1.0]])
        smoothed_cross_entropy(logits, targets, mask, 0.1).backward()
        np.testing.assert_array_equal(logits.grad[0, 1], np.zeros(4))
        assert np.any(logits.grad[0, 0] != 0.0)

    def test_zero_smoothing_is_plain_nll(self):
        logits = Tensor(np.log(np.array([[[0.7, 0.2, 0.1]]])))
        loss = smoothed_cross_entropy(logits, np.array([[0]]), np.ones((1, 1)), 0.0)
        assert np.isclose(loss.item(), -math.log(0.7))


class TestBuildDecoderInput:
    def test_baseline_rows_and_stats(self):
        vocab, corpus, cfg = tiny_setup()
        model = Model(cfg.model, cfg.fusion, seed=0)
        batches = tr.make_batches(corpus[:4], 4)
        batch = batches[0]
        reachable = np.ones(batch.size, dtype=bool)
        dec = build_decoder_input(batch, model, cfg, vocab, [None] * batch.size, reachable)
        assert dec.pathway_counts["ground_truth_only"] == batch.size
        assert sum(dec.pathway_counts.values()) == batch.size
        rows = [[vocab.sos_id] + list(y) for y in batch.transcripts]
        expected = fused_embedding_reference(model, vocab.pad_id, rows, rows, [0.0] * batch.size)
        assert dec.input_emb.data.tobytes() == expected.tobytes()
        for i, y in enumerate(batch.transcripts):
            assert tuple(dec.targets[i, : len(y) + 1]) == tuple(y) + (vocab.eos_id,)

    def test_aligned_fusion_on_reference_example(self):
        # reference {A,B,C,A} against hypothesis {A,C,A}: one blank into the
        # hypothesis side, targets keep the reference plus eos
        vocab, corpus, cfg = tiny_setup(method=METHOD_ALIGNED, alpha=0.5)
        model = Model(cfg.model, cfg.fusion, seed=0)
        a, b, c = 4, 5, 6
        utt = corpus[0]
        utt = dataclasses.replace(utt, transcript=(a, b, c, a)) if dataclasses.is_dataclass(utt) else utt
        batch = tr.make_batches([utt], 1)[0]
        batch.transcripts[0] = (a, b, c, a)
        dec = build_decoder_input(batch, model, cfg, vocab, [(a, c, a)], np.array([True]))
        expected = fused_embedding_reference(
            model, vocab.pad_id, [[vocab.sos_id, a, b, c, a]],
            [[vocab.sos_id, a, vocab.blank_id, c, a]], [0.5],
        )
        assert dec.input_emb.data.tobytes() == expected.tobytes()
        assert tuple(dec.targets[0, :5]) == (a, b, c, a, vocab.eos_id)
        assert dec.blanks_inserted == 1
        assert dec.pathway_counts["ctc_as_input"] == 1  # lengths 3 vs 4 within t_l=2
        assert np.all(dec.loss_mask[0, :5] == 1.0)

    def test_aligned_blank_targets_masked(self):
        vocab, corpus, cfg = tiny_setup(method=METHOD_ALIGNED, alpha=0.5)
        model = Model(cfg.model, cfg.fusion, seed=0)
        a, b = 4, 5
        batch = tr.make_batches([corpus[0]], 1)[0]
        batch.transcripts[0] = (a, b)
        # hypothesis inserts an extra token: reference side gets a blank target
        dec = build_decoder_input(batch, model, cfg, vocab, [(a, 6, b)], np.array([True]))
        expected = fused_embedding_reference(
            model, vocab.pad_id, [[vocab.sos_id, a, vocab.blank_id, b]],
            [[vocab.sos_id, a, 6, b]], [0.5],
        )
        assert dec.input_emb.data.tobytes() == expected.tobytes()
        assert tuple(dec.targets[0, :4]) == (a, vocab.blank_id, b, vocab.eos_id)
        np.testing.assert_array_equal(dec.loss_mask[0, :4], [1.0, 0.0, 1.0, 1.0])

    def test_fusion_pathways_and_fitting(self):
        vocab, corpus, cfg = tiny_setup(method=METHOD_FUSION, alpha=0.5)
        model = Model(cfg.model, cfg.fusion, seed=0)
        batch = tr.make_batches(corpus[:3], 3)[0]
        y0, y1, y2 = batch.transcripts
        hyps = [
            tuple(y0),                     # equal length -> fuse
            tuple(y1)[:-1] if len(y1) > 1 else (4,) * (len(y1) + 1),  # off by one -> ctc input
            (4,) * (len(y2) + 9),          # far -> ground truth
        ]
        dec = build_decoder_input(batch, model, cfg, vocab, hyps, np.ones(3, dtype=bool))
        assert dec.pathway_counts == {"fuse": 1, "ctc_as_input": 1, "ground_truth_only": 1}
        assert len(hyps[1]) == len(y1) - 1
        y_rows = [[vocab.sos_id] + list(y) for y in (y0, y1, y2)]
        fitted = [vocab.sos_id] + list(hyps[1]) + [vocab.eos_id]  # right-padded with eos
        w_rows = [y_rows[0], fitted, y_rows[2]]
        expected = fused_embedding_reference(model, vocab.pad_id, y_rows, w_rows, [0.5, 1.0, 0.0])
        assert dec.input_emb.data.tobytes() == expected.tobytes()

    def test_unreachable_forced_to_ground_truth(self):
        vocab, corpus, cfg = tiny_setup(method=METHOD_FUSION)
        model = Model(cfg.model, cfg.fusion, seed=0)
        batch = tr.make_batches([corpus[0]], 1)[0]
        y = batch.transcripts[0]
        # an equal-length hypothesis fuses only while the CTC loss reaches the row
        reached = build_decoder_input(batch, model, cfg, vocab, [tuple(y)], np.array([True]))
        assert reached.pathway_counts["fuse"] == 1
        dec = build_decoder_input(batch, model, cfg, vocab, [tuple(y)], np.array([False]))
        assert dec.pathway_counts["ground_truth_only"] == 1


    def test_baseline_builds_no_posterior(self):
        # rows that exponentiate to no distribution: a search would reject them
        log_probs, lengths = np.zeros((3, 5, 7)), np.array([5, 4, 2])
        baseline, fusion = FusionConfig(method=METHOD_BASELINE), FusionConfig(method=METHOD_FUSION)
        assert compute_ctc_hypotheses(log_probs, lengths, baseline, 0) == [None] * 3
        with pytest.raises(ValueError, match="distribution"):
            compute_ctc_hypotheses(log_probs, lengths, fusion, 0)


class TestFusionDegeneracy:
    def test_alpha_zero_bitwise_equal_to_baseline(self):
        vocab, corpus, cfg_ef = tiny_setup(method=METHOD_FUSION, alpha=0.0)
        _, _, cfg_base = tiny_setup(method=METHOD_BASELINE)
        model_cfg = dataclasses.replace(cfg_ef.model, dropout=0.1)
        cfg_ef = dataclasses.replace(cfg_ef, model=model_cfg)
        cfg_base = dataclasses.replace(cfg_base, model=model_cfg)

        model_a = Model(model_cfg, cfg_ef.fusion, seed=11)
        model_b = Model(model_cfg, cfg_base.fusion, seed=11)
        batch = tr.make_batches(corpus[:4], 4)[0]
        # hypotheses of matching length so every utterance gates to fuse
        hyps = [tuple(4 for _ in y) for y in batch.transcripts]

        losses = []
        for model, cfg, use_hyps in ((model_a, cfg_ef, hyps), (model_b, cfg_base, [None] * 4)):
            model.train(True)
            model.rng = np.random.default_rng(99)
            enc = model.encode(batch.features, batch.feat_lengths)
            post = model.ctc_head(enc)
            _, ctc = ctc_loss_op(post, enc.lengths, batch.transcripts, vocab.blank_id)
            dec = build_decoder_input(batch, model, cfg, vocab, use_hyps, ctc.used)
            logits = model.decoder_forward(dec.input_emb, enc, dec.ne_memory)
            att = smoothed_cross_entropy(logits, dec.targets, dec.loss_mask, 0.1)
            losses.append((att.item(), logits.data.tobytes()))
        assert losses[0][1] == losses[1][1]
        assert losses[0][0] == losses[1][0]


class TestTrainingLoop:
    def test_two_runs_identical_metrics(self):
        vocab, corpus, cfg = tiny_setup()
        runs = []
        for _ in range(2):
            result = train(corpus, vocab, cfg)
            runs.append([m.to_json_record() for m in result.history])
        assert runs[0] == runs[1]

    def test_loss_decreases_over_epochs(self):
        vocab, corpus, cfg = tiny_setup(count=16)
        cfg = dataclasses.replace(cfg, epochs=5, lr_base=0.03, warmup_steps=20)
        result = train(corpus, vocab, cfg)
        losses = [m.joint_loss for m in result.history]
        assert losses[-1] < losses[0]

    def test_pathway_counts_reconcile(self):
        vocab, corpus, cfg = tiny_setup(method=METHOD_FUSION)
        result = train(corpus, vocab, cfg)
        for m in result.history:
            assert sum(m.pathway_counts.values()) == m.utterances

    @pytest.mark.parametrize("method", [METHOD_BASELINE, METHOD_NBEST])
    def test_step_after_evaluate_fills_every_gradient(self, method, monkeypatch):
        # the train-CER decode runs without a tape; the next step must not
        fusion_kw = {"n": 2, "beam_width": 3} if method == METHOD_NBEST else {}
        vocab, corpus, cfg = tiny_setup(method=method, **fusion_kw)
        model = Model(cfg.model, cfg.fusion, seed=0)
        opt = Adam(model.params, cfg)
        train_epoch(corpus, vocab, model, opt, cfg, epoch=1)
        greedy = tr.DecodeConfig(beam=1)
        tr.evaluate(corpus, lambda utt: tr.decode_utterance(utt, model, greedy, vocab)[0])

        grads = {}
        original = Adam.step

        def keep_grads(self):
            grads.update({name: p.grad for name, p in self.params.items()})
            return original(self)

        monkeypatch.setattr(Adam, "step", keep_grads)
        batch = tr.make_batches(corpus, 8, seed=1)[0]
        model.train(True)
        run_training_step(batch, model, opt, cfg, vocab)
        assert set(grads) == set(model.params)
        assert all(g is not None and np.any(g != 0.0) for g in grads.values()), [
            name for name, g in grads.items() if g is None or not np.any(g != 0.0)
        ]

    def test_epoch_metrics_json_excludes_wall_time(self):
        vocab, corpus, cfg = tiny_setup()
        result = train(corpus, vocab, cfg)
        record = result.history[0].to_json_record()
        assert "wall_time" not in record
        assert result.history[0].wall_time_s > 0.0

    def test_ctc_weight_one_leaves_decoder_untouched(self):
        vocab, corpus, cfg = tiny_setup()
        cfg = dataclasses.replace(cfg, ctc_weight=1.0)
        model = Model(cfg.model, cfg.fusion, seed=0)
        opt = Adam(model.params, cfg)
        batch = tr.make_batches(corpus[:4], 4)[0]
        model.train(True)
        model.rng = np.random.default_rng(0)
        enc = model.encode(batch.features, batch.feat_lengths)
        post = model.ctc_head(enc)
        hyps = compute_ctc_hypotheses(post.data, enc.lengths, cfg.fusion, vocab.blank_id)
        ctc_mean, ctc = ctc_loss_op(post, enc.lengths, batch.transcripts, vocab.blank_id)
        dec = build_decoder_input(batch, model, cfg, vocab, hyps, ctc.used)
        logits = model.decoder_forward(dec.input_emb, enc, dec.ne_memory)
        att = smoothed_cross_entropy(logits, dec.targets, dec.loss_mask, 0.1)
        joint_loss(ctc_mean, att, 1.0).backward()
        for name, p in model.params.items():
            if name.startswith("decoder."):
                assert p.grad is None or np.all(p.grad == 0.0), name

    def test_numeric_failure_names_batch(self):
        vocab, corpus, cfg = tiny_setup()
        model = Model(cfg.model, cfg.fusion, seed=0)
        model.params["encoder.sub.proj.w"].data[:] = np.nan
        opt = Adam(model.params, cfg)
        with pytest.raises(NumericError, match="batch 0"):
            train_epoch(corpus, vocab, model, opt, cfg, epoch=1)

    def test_train_cer_numeric_failure_names_utterance(self, monkeypatch):
        vocab, corpus, cfg = tiny_setup()
        original = tr.train_epoch

        def overflow_after_epoch(corpus, vocab, model, *args, **kwargs):
            metrics = original(corpus, vocab, model, *args, **kwargs)
            # finite, but log-softmax puts the two logits 2e308 apart: -inf
            model.params["decoder.out.b"].data[:2] = (1e308, -1e308)
            return metrics

        monkeypatch.setattr(tr, "train_epoch", overflow_after_epoch)
        with pytest.raises(NumericError, match=f"^utterance {corpus[0].utt_id}: "):
            train(corpus, vocab, dataclasses.replace(cfg, epochs=1))

    @pytest.mark.parametrize("method", [METHOD_FUSION, METHOD_ALIGNED, METHOD_NBEST])
    def test_methods_run_one_epoch(self, method):
        kw = {"n": 2, "beam_width": 3} if method == METHOD_NBEST else {"alpha": 0.5}
        vocab, corpus, cfg = tiny_setup(method=method, **kw)
        model = Model(cfg.model, cfg.fusion, seed=0)
        opt = Adam(model.params, cfg)
        metrics = train_epoch(corpus, vocab, model, opt, cfg, epoch=1)
        assert np.isfinite(metrics.joint_loss)
        assert sum(metrics.pathway_counts.values()) == len(corpus)

    def test_unreachable_utterances_named_in_log(self):
        vocab, corpus, cfg = tiny_setup(count=8)
        cfg = dataclasses.replace(cfg, epochs=1)
        # four frames subsample to one encoder frame: too few for two tokens
        short = {1, 5}
        corpus = [
            Utterance(u.utt_id, u.features[:4], u.transcript) if i in short else u
            for i, u in enumerate(corpus)
        ]
        lines = []
        metrics = train(corpus, vocab, cfg, log=lines.append).history[0]
        ids = sorted(corpus[i].utt_id for i in short)
        assert sorted(metrics.ctc_unreachable_ids) == ids and metrics.ctc_unreachable == 2
        [named] = re.findall(r"ctc_unreachable=(\S+)", lines[0])
        assert sorted(named.split(",")) == ids
        record = json.loads(metrics.to_json_record())
        assert record["ctc_unreachable"] == 2
        assert not any(utt_id in metrics.to_json_record() for utt_id in ids)

    def test_short_nbest_lists_counted(self):
        # four frames subsample to one encoder frame, from which only the
        # empty prefix and the single tokens are reachable: fewer than n
        synth = SynthConfig(
            vocab_size=2, count=4, min_len=1, max_len=1, min_frames_per_token=4,
            max_frames_per_token=4, feature_dim=4, seed=1,
        )
        vocab, corpus = synth_corpus(synth)
        cfg = TrainConfig(
            model=toy_config(vocab_size=vocab.size),
            fusion=FusionConfig(method=METHOD_NBEST, n=vocab.size + 1, beam_width=vocab.size + 1),
            epochs=1, batch_size=2, seed=1, eval_every=100,
        )
        lines = []
        result = train(corpus, vocab, cfg, log=lines.append)
        metrics = result.history[0]
        assert metrics.nbest_incomplete == len(corpus)
        assert f"nbest_incomplete={len(corpus)}" in lines[0]
        assert "nbest_incomplete" not in metrics.to_json_record()


def short_frame_corpus(vocab_size: int, count: int) -> list[Utterance]:
    """Two frames per token subsample to fewer encoder frames than tokens: no CTC path reaches any."""
    synth = SynthConfig(vocab_size=vocab_size, count=count, min_len=3, max_len=4,
                        min_frames_per_token=2, max_frames_per_token=2, feature_dim=4)
    return [Utterance(f"short-{u.utt_id}", u.features, u.transcript)
            for u in synth_corpus(synth)[1]]


class TestEpochRecord:
    """Every ``EpochMetrics`` field is derived from the ``StepStats`` its steps returned."""

    def run_epoch(self, corpus, vocab, cfg, monkeypatch):
        steps = []
        run_step = tr.run_training_step

        def recording_step(*args, **kwargs):  # wrapped by its module-global name, as the benchmark does
            steps.append(run_step(*args, **kwargs))
            return steps[-1]

        monkeypatch.setattr(tr, "run_training_step", recording_step)
        model = Model(cfg.model, cfg.fusion, seed=0)
        metrics = train_epoch(corpus, vocab, model, Adam(model.params, cfg), cfg, epoch=1)
        assert len(steps) == -(-len(corpus) // cfg.batch_size)
        return metrics, steps

    def assert_derived(self, metrics, steps):
        joint = att = ctc = 0.0  # summed left to right in batch order
        seen = reachable = 0
        for s in steps:
            joint += s.joint * s.size
            att += s.att * s.size
            ctc += s.ctc * s.reachable
            seen += s.size
            reachable += s.reachable
        expected = {
            "epoch": 1,
            "joint_loss": joint / seen,
            "ctc_loss": ctc / reachable if reachable else None,
            "att_loss": att / seen,
            "blanks_inserted": sum(s.blanks_inserted for s in steps),
            "pathway_counts": {d.value: sum(s.pathway_counts[d.value] for s in steps)
                               for d in PathwayDecision},
            "ctc_unreachable_ids": [uid for s in steps for uid in s.unreachable_ids],
            "nbest_incomplete": sum(s.nbest_incomplete for s in steps),
            "utterances": seen,
            "train_cer": None,
        }
        fields = [f.name for f in dataclasses.fields(metrics) if f.name != "wall_time_s"]
        assert fields == list(expected)
        assert {name: getattr(metrics, name) for name in fields} == expected
        assert list(metrics.pathway_counts) == [d.value for d in PathwayDecision]
        assert metrics.wall_time_s > 0.0

    def test_aligned_epoch_with_unreachable_utterances(self, monkeypatch):
        vocab, corpus, cfg = tiny_setup(method=METHOD_ALIGNED, count=8)
        short = short_frame_corpus(vocab_size=5, count=4)
        corpus = [u for pair in zip(corpus[::2], corpus[1::2], short) for u in pair]
        metrics, steps = self.run_epoch(corpus, vocab, cfg, monkeypatch)
        self.assert_derived(metrics, steps)
        assert sorted(metrics.ctc_unreachable_ids) == sorted(u.utt_id for u in short)
        assert 0 < sum(s.reachable for s in steps) < len(corpus)
        assert metrics.blanks_inserted > 0 and metrics.ctc_loss is not None

    def test_nbest_epoch_with_short_lists(self, monkeypatch):
        # one encoder frame reaches only the empty prefix and single tokens: fewer than n
        synth = SynthConfig(
            vocab_size=2, count=5, min_len=1, max_len=1, min_frames_per_token=4,
            max_frames_per_token=4, feature_dim=4, seed=1,
        )
        vocab, corpus = synth_corpus(synth)
        cfg = TrainConfig(
            model=toy_config(vocab_size=vocab.size),
            fusion=FusionConfig(method=METHOD_NBEST, n=vocab.size + 1, beam_width=vocab.size + 1),
            epochs=1, batch_size=2, seed=1, eval_every=100,
        )
        metrics, steps = self.run_epoch(corpus, vocab, cfg, monkeypatch)
        self.assert_derived(metrics, steps)
        assert metrics.nbest_incomplete == len(corpus) and len(steps) == 3

    def test_epoch_without_reachable_row_has_null_ctc_loss(self, monkeypatch):
        vocab, _, cfg = tiny_setup(method=METHOD_ALIGNED)
        corpus = short_frame_corpus(vocab_size=5, count=8)
        metrics, steps = self.run_epoch(corpus, vocab, cfg, monkeypatch)
        self.assert_derived(metrics, steps)
        assert metrics.ctc_loss is None and metrics.ctc_unreachable == len(corpus)


class TestOpCounts:
    """Tensor ops per step on a tiny fixed model, each one ``Tensor._result`` call.

    Linear layers and multi-head attention run as one op each; splitting
    them into separate ops again changes these counts.
    """

    @staticmethod
    def count_ops(monkeypatch, fn, *args) -> int:
        """The ``Tensor._result`` calls ``fn(*args)`` makes."""
        calls = []
        result = Tensor._result
        monkeypatch.setattr(Tensor, "_result", staticmethod(lambda *a: calls.append(1) or result(*a)))
        fn(*args)
        monkeypatch.undo()
        return len(calls)

    def test_incremental_decoder_step_at_beam_3(self, monkeypatch):
        vocab, corpus, cfg = tiny_setup(METHOD_ALIGNED)
        model = Model(cfg.model, cfg.fusion, seed=0)
        with tz.inference():
            utt = corpus[0]
            enc = model.encode(utt.features[None], np.array([len(utt.features)]))
            cache = DecoderCache()
            model.decoder_forward(model.embed_tokens(np.array([[vocab.sos_id]])), enc, cache=cache)
            cache.reorder([0, 0, 0])
            step = model.embed_tokens(np.array([[4], [5], [6]]), 1)
            assert self.count_ops(monkeypatch, model.decoder_forward, step, enc, None, cache) == 36

    @pytest.mark.parametrize(
        "method, fusion_kw, ops",
        [(METHOD_ALIGNED, {}, 95), (METHOD_NBEST, {"n": 2, "beam_width": 3}, 122)],
        ids=[METHOD_ALIGNED, METHOD_NBEST],
    )
    def test_training_step(self, monkeypatch, method, fusion_kw, ops):
        vocab, corpus, cfg = tiny_setup(method, **fusion_kw)
        model = Model(cfg.model, cfg.fusion, seed=0)
        optimizer = Adam(model.params, cfg)
        batch = tr.make_batches(corpus, cfg.batch_size, seed=1)[0]
        model.train(True)
        assert self.count_ops(monkeypatch, run_training_step, batch, model, optimizer, cfg, vocab) == ops


class TestCheckpoints:
    def test_save_load_save_byte_identical(self, tmp_path):
        vocab, corpus, cfg = tiny_setup()
        model = Model(cfg.model, cfg.fusion, seed=0)
        opt = Adam(model.params, cfg)
        train_epoch(corpus, vocab, model, opt, cfg, epoch=1)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, model, opt, cfg, vocab, epoch=1)
        model2, opt2, meta = load_checkpoint(p1)
        save_checkpoint(p2, model2, opt2, cfg, vocab, epoch=1)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.ckpt.json").read_bytes() == (tmp_path / "b.ckpt.json").read_bytes()

    def test_fresh_run_overwrites_metrics(self, tmp_path):
        vocab, corpus, cfg = tiny_setup(count=8)
        single, twice = tmp_path / "single", tmp_path / "twice"
        train(corpus, vocab, cfg, out_dir=str(single))
        for _ in range(2):
            train(corpus, vocab, cfg, out_dir=str(twice))
        assert (twice / "metrics.jsonl").read_bytes() == (single / "metrics.jsonl").read_bytes()

    def test_failed_save_keeps_previous_pair(self, tmp_path, monkeypatch):
        vocab, corpus, cfg = tiny_setup()
        model = Model(cfg.model, cfg.fusion, seed=0)
        opt = Adam(model.params, cfg)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt, cfg, vocab, epoch=0)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        train_epoch(corpus, vocab, model, opt, cfg, epoch=1)

        def disk_full(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(tr.json, "dump", disk_full)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, model, opt, cfg, vocab, epoch=1)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("epoch", ["2", True, -1, 1.5, None, "drop"])
    def test_bad_epoch_is_rejected(self, tmp_path, epoch):
        vocab, corpus, cfg = tiny_setup()
        model = Model(cfg.model, cfg.fusion, seed=0)
        path = tmp_path / "e.ckpt"
        save_checkpoint(path, model, Adam(model.params, cfg), cfg, vocab, epoch=2)
        sidecar = json.loads((tmp_path / "e.ckpt.json").read_text())
        if epoch == "drop":
            del sidecar["epoch"]
        else:
            sidecar["epoch"] = epoch
        (tmp_path / "e.ckpt.json").write_text(json.dumps(sidecar))
        with pytest.raises(CheckpointError, match="epoch"):
            load_checkpoint(path)

    def test_corrupt_format_version(self, tmp_path):
        vocab, corpus, cfg = tiny_setup()
        model = Model(cfg.model, cfg.fusion, seed=0)
        opt = Adam(model.params, cfg)
        path = tmp_path / "c.ckpt"
        save_checkpoint(path, model, opt, cfg, vocab, epoch=0)
        sidecar = (tmp_path / "c.ckpt.json").read_text().replace(
            '"format_version": 1', '"format_version": 9'
        )
        (tmp_path / "c.ckpt.json").write_text(sidecar)
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", ["sinusoidal", "learned"])
    def test_sidecar_naming_the_former_pos_encoding(self, tmp_path, value):
        vocab, corpus, cfg = tiny_setup()
        model = Model(cfg.model, cfg.fusion, seed=0)
        path = tmp_path / "p.ckpt"
        save_checkpoint(path, model, Adam(model.params, cfg), cfg, vocab, epoch=1)
        sidecar = json.loads((tmp_path / "p.ckpt.json").read_text())
        sidecar["model_config"]["pos_encoding"] = value
        (tmp_path / "p.ckpt.json").write_text(json.dumps(sidecar))
        if value != "sinusoidal":
            with pytest.raises(CheckpointError, match="positional encoding 'learned'"):
                load_checkpoint(path)
            return
        loaded, _, _ = load_checkpoint(path)
        assert loaded.config == cfg.model
        assert loaded.params.keys() == model.params.keys()
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()

    def saved_arrays(self, tmp_path):
        """A fresh pair at ``tmp_path / "s.ckpt"`` and its container's arrays."""
        vocab, corpus, cfg = tiny_setup()
        model = Model(cfg.model, cfg.fusion, seed=0)
        opt = Adam(model.params, cfg)
        train_epoch(corpus, vocab, model, opt, cfg, epoch=1)
        path = tmp_path / "s.ckpt"
        save_checkpoint(path, model, opt, cfg, vocab, epoch=1)
        return path, load_tensors(path)

    def test_load_draws_no_init_and_allocates_no_zero_moments(self, tmp_path, monkeypatch):
        path, arrays = self.saved_arrays(tmp_path)

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"load_checkpoint drew an init by Generator.{name}")

        def no_zeros(*args, **kwargs):
            raise AssertionError("load_checkpoint allocated zero moments")

        monkeypatch.setattr(np.random, "default_rng", lambda *args: NoDraws())
        monkeypatch.setattr(np, "zeros_like", no_zeros)
        model, opt, _ = load_checkpoint(path)
        monkeypatch.undo()
        for name, p in model.params.items():
            assert p.data.tobytes() == arrays[name].tobytes()
            assert opt.m[name].tobytes() == arrays["adam.m." + name].tobytes()
            assert opt.v[name].tobytes() == arrays["adam.v." + name].tobytes()

    @pytest.mark.parametrize("step", [np.array([2.5]), np.array([7.0], dtype=np.float32)])
    def test_adam_step_must_be_an_integer(self, tmp_path, step):
        path, arrays = self.saved_arrays(tmp_path)
        arrays["adam.step"] = step
        save_tensors(path, arrays)
        with pytest.raises(CheckpointError, match="adam.step"):
            load_checkpoint(path)

    def test_float32_arrays_load_as_float64(self, tmp_path):
        path, arrays = self.saved_arrays(tmp_path)
        narrow = {name: arr if name == "adam.step" else arr.astype(np.float32)
                  for name, arr in arrays.items()}
        save_tensors(path, narrow)
        model, opt, _ = load_checkpoint(path)
        assert opt.step_count == int(arrays["adam.step"][0])
        loaded = {name: p.data for name, p in model.params.items()}
        for kind, moments in (("m", opt.m), ("v", opt.v)):
            loaded.update({f"adam.{kind}.{name}": arr for name, arr in moments.items()})
        assert loaded.keys() == narrow.keys() - {"adam.step"}
        for name, arr in loaded.items():
            assert arr.dtype == np.float64 and np.array_equal(arr, narrow[name]), name


class TestInitFromPretrained:
    def make_donor(self, tmp_path, vocab, corpus, cfg):
        model = Model(cfg.model, cfg.fusion, seed=5)
        opt = Adam(model.params, cfg)
        train_epoch(corpus, vocab, model, opt, cfg, epoch=1)
        path = tmp_path / "donor.ckpt"
        save_checkpoint(path, model, opt, cfg, vocab, epoch=1)
        return model, path

    def test_encoder_selection(self, tmp_path):
        vocab, corpus, cfg = tiny_setup()
        donor, path = self.make_donor(tmp_path, vocab, corpus, cfg)
        target = Model(cfg.model, cfg.fusion, seed=99)
        before_decoder = target.params["decoder.out.w"].data.copy()
        init_from_pretrained(target, path, "encoder", vocab)
        for name in target.params:
            if name.startswith(("encoder.", "ctc_head.")):
                assert (
                    target.params[name].data.tobytes() == donor.params[name].data.tobytes()
                ), name
        np.testing.assert_array_equal(target.params["decoder.out.w"].data, before_decoder)
        assert (
            target.params["embed.table"].data.tobytes()
            != donor.params["embed.table"].data.tobytes()
        )

    def test_encoder_decoder_selection_skips_ne_params(self, tmp_path):
        vocab, corpus, cfg = tiny_setup()
        donor, path = self.make_donor(tmp_path, vocab, corpus, cfg)
        ne_cfg = dataclasses.replace(
            cfg, fusion=FusionConfig(method=METHOD_NBEST, n=2, beam_width=3)
        )
        target = Model(ne_cfg.model, ne_cfg.fusion, seed=42)
        fresh_ne = {
            name: p.data.copy() for name, p in target.params.items()
            if name.startswith("ne.") or ".ne." in name or ".nproj." in name
        }
        assert fresh_ne
        init_from_pretrained(target, path, "encoder_decoder", vocab)
        for name, arr in fresh_ne.items():
            np.testing.assert_array_equal(target.params[name].data, arr)
        assert (
            target.params["embed.table"].data.tobytes()
            == donor.params["embed.table"].data.tobytes()
        )
        assert (
            target.params["decoder.layer0.self.q.w"].data.tobytes()
            == donor.params["decoder.layer0.self.q.w"].data.tobytes()
        )

    def test_width_mismatch_lists_names(self, tmp_path):
        vocab, corpus, cfg = tiny_setup()
        donor, path = self.make_donor(tmp_path, vocab, corpus, cfg)
        wide = dataclasses.replace(cfg.model, d_model=16, ffn_dim=32)
        target = Model(wide, cfg.fusion, seed=0)
        with pytest.raises(ValueError, match="encoder"):
            init_from_pretrained(target, path, "encoder", vocab)

    def test_vocab_hash_mismatch(self, tmp_path):
        vocab, corpus, cfg = tiny_setup()
        donor, path = self.make_donor(tmp_path, vocab, corpus, cfg)
        target = Model(cfg.model, cfg.fusion, seed=0)
        with pytest.raises(ValueError, match="vocabulary"):
            init_from_pretrained(target, path, "encoder", build_vocab(["xyz"]))

    def test_unsupported_format_version(self, tmp_path):
        vocab, corpus, cfg = tiny_setup()
        donor, path = self.make_donor(tmp_path, vocab, corpus, cfg)
        sidecar = tmp_path / "donor.ckpt.json"
        sidecar.write_text(
            sidecar.read_text().replace('"format_version": 1', '"format_version": 9')
        )
        target = Model(cfg.model, cfg.fusion, seed=0)
        with pytest.raises(CheckpointError, match="version 9"):
            init_from_pretrained(target, path, "encoder", vocab)

    def test_unknown_selection(self, tmp_path):
        vocab, corpus, cfg = tiny_setup()
        donor, path = self.make_donor(tmp_path, vocab, corpus, cfg)
        with pytest.raises(ValueError, match="selection"):
            init_from_pretrained(Model(cfg.model, cfg.fusion, seed=0), path, "decoder")
