import dataclasses
import json
import math
import os
import re

import numpy as np
import pytest

from ctcfuse.alignment import GatingConfig
from ctcfuse.data import SynthConfig, Utterance, synth_corpus
from ctcfuse.model import (
    METHOD_ALIGNED,
    METHOD_BASELINE,
    METHOD_FUSION,
    METHOD_NBEST,
    FusionConfig,
    Model,
    ModelConfig,
)
from ctcfuse.tensor import Tensor
from ctcfuse import training as tr
from ctcfuse.training import (
    Adam,
    CheckpointError,
    NumericError,
    TrainConfig,
    adam_step,
    build_decoder_input,
    compute_ctc_hypotheses,
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
    model_cfg = ModelConfig.toy(vocab_size=vocab.size)
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
        cfg = TrainConfig(model=ModelConfig.toy(vocab_size=5))
        opt = Adam(params, cfg)
        params["a"].grad = np.ones(2)
        opt.step()
        assert not np.allclose(params["a"].data, 1.0)
        np.testing.assert_array_equal(params["b"].data, np.ones(2))


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
        batches = tr.make_batches(corpus, 4, policy="none")
        batch = batches[0]
        enc_lengths = np.array([u // 4 + 2 for u in batch.feat_lengths])
        dec = build_decoder_input(batch, model, cfg, vocab, [None] * batch.size, enc_lengths)
        assert dec.pathway_counts["ground_truth_only"] == batch.size
        assert sum(dec.pathway_counts.values()) == batch.size
        for i, y in enumerate(batch.transcripts):
            assert dec.y_rows[i] == [vocab.sos_id] + list(y)
            assert tuple(dec.targets[i, : len(y) + 1]) == tuple(y) + (vocab.eos_id,)

    def test_aligned_fusion_on_reference_example(self):
        # reference {A,B,C,A} against hypothesis {A,C,A}: one blank into the
        # hypothesis side, targets keep the reference plus eos
        vocab, corpus, cfg = tiny_setup(method=METHOD_ALIGNED, alpha=0.5)
        model = Model(cfg.model, cfg.fusion, seed=0)
        a, b, c = 4, 5, 6
        utt = corpus[0]
        utt = dataclasses.replace(utt, transcript=(a, b, c, a)) if dataclasses.is_dataclass(utt) else utt
        batch = tr.make_batches([utt], 1, policy="none")[0]
        batch.transcripts[0] = (a, b, c, a)
        dec = build_decoder_input(
            batch, model, cfg, vocab, [(a, c, a)], np.array([10])
        )
        assert dec.y_rows[0] == [vocab.sos_id, a, b, c, a]
        assert dec.w_rows[0] == [vocab.sos_id, a, vocab.blank_id, c, a]
        assert tuple(dec.targets[0, :5]) == (a, b, c, a, vocab.eos_id)
        assert dec.blanks_inserted == 1
        assert dec.pathway_counts["ctc_as_input"] == 1  # lengths 3 vs 4 within t_l=2
        assert np.all(dec.loss_mask[0, :5] == 1.0)

    def test_aligned_blank_targets_masked(self):
        vocab, corpus, cfg = tiny_setup(method=METHOD_ALIGNED, alpha=0.5)
        model = Model(cfg.model, cfg.fusion, seed=0)
        a, b = 4, 5
        batch = tr.make_batches([corpus[0]], 1, policy="none")[0]
        batch.transcripts[0] = (a, b)
        # hypothesis inserts an extra token: reference side gets a blank target
        dec = build_decoder_input(batch, model, cfg, vocab, [(a, 6, b)], np.array([10]))
        assert dec.y_rows[0] == [vocab.sos_id, a, vocab.blank_id, b]
        assert tuple(dec.targets[0, :4]) == (a, vocab.blank_id, b, vocab.eos_id)
        np.testing.assert_array_equal(dec.loss_mask[0, :4], [1.0, 0.0, 1.0, 1.0])

    def test_fusion_pathways_and_fitting(self):
        vocab, corpus, cfg = tiny_setup(method=METHOD_FUSION, alpha=0.5)
        model = Model(cfg.model, cfg.fusion, seed=0)
        batch = tr.make_batches(corpus[:3], 3, policy="none")[0]
        y0, y1, y2 = batch.transcripts
        hyps = [
            tuple(y0),                     # equal length -> fuse
            tuple(y1)[:-1] if len(y1) > 1 else (4,) * (len(y1) + 1),  # off by one -> ctc input
            (4,) * (len(y2) + 9),          # far -> ground truth
        ]
        dec = build_decoder_input(batch, model, cfg, vocab, hyps, np.array([20, 20, 20]))
        assert dec.pathway_counts == {"fuse": 1, "ctc_as_input": 1, "ground_truth_only": 1}
        assert dec.alphas[0] == 0.5 and dec.alphas[1] == 1.0 and dec.alphas[2] == 0.0
        fitted = dec.w_rows[1]
        assert len(fitted) == len(y1) + 1
        assert fitted[-1] == vocab.eos_id  # right-padded with eos

    def test_unreachable_forced_to_ground_truth(self):
        vocab, corpus, cfg = tiny_setup(method=METHOD_FUSION)
        model = Model(cfg.model, cfg.fusion, seed=0)
        batch = tr.make_batches([corpus[0]], 1, policy="none")[0]
        y = batch.transcripts[0]
        dec = build_decoder_input(batch, model, cfg, vocab, [tuple(y)], np.array([1]))
        assert dec.pathway_counts["ground_truth_only"] == 1
        assert dec.ctc_reachable == [False]


class TestFusionDegeneracy:
    def test_alpha_zero_bitwise_equal_to_baseline(self):
        vocab, corpus, cfg_ef = tiny_setup(method=METHOD_FUSION, alpha=0.0)
        _, _, cfg_base = tiny_setup(method=METHOD_BASELINE)
        model_cfg = dataclasses.replace(cfg_ef.model, dropout=0.1)
        cfg_ef = dataclasses.replace(cfg_ef, model=model_cfg)
        cfg_base = dataclasses.replace(cfg_base, model=model_cfg)

        model_a = Model(model_cfg, cfg_ef.fusion, seed=11)
        model_b = Model(model_cfg, cfg_base.fusion, seed=11)
        batch = tr.make_batches(corpus, 4, policy="none")[0]
        # hypotheses of matching length so every utterance gates to fuse
        hyps = [tuple(4 for _ in y) for y in batch.transcripts]

        losses = []
        for model, cfg, use_hyps in ((model_a, cfg_ef, hyps), (model_b, cfg_base, [None] * 4)):
            model.train(True)
            model.rng = np.random.default_rng(99)
            enc = model.encode(batch.features, batch.feat_lengths)
            post = model.ctc_head(enc)
            dec = build_decoder_input(batch, model, cfg, vocab, use_hyps, enc.lengths)
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
        batch = tr.make_batches(corpus, 4, policy="none")[0]
        model.train(True)
        model.rng = np.random.default_rng(0)
        enc = model.encode(batch.features, batch.feat_lengths)
        post = model.ctc_head(enc)
        hyps = compute_ctc_hypotheses(post.data, enc.lengths, cfg.fusion, vocab.blank_id)
        dec = build_decoder_input(batch, model, cfg, vocab, hyps, enc.lengths)
        from ctcfuse.ctc import ctc_loss_op

        ctc_mean, _ = ctc_loss_op(
            post, enc.lengths, batch.transcripts, dec.ctc_reachable, vocab.blank_id
        )
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
            model=ModelConfig.toy(vocab_size=vocab.size),
            fusion=FusionConfig(method=METHOD_NBEST, n=vocab.size + 1, beam_width=vocab.size + 1),
            epochs=1, batch_size=2, seed=1, eval_every=100,
        )
        lines = []
        result = train(corpus, vocab, cfg, log=lines.append)
        metrics = result.history[0]
        assert metrics.nbest_incomplete == len(corpus)
        assert f"nbest_incomplete={len(corpus)}" in lines[0]
        assert "nbest_incomplete" not in metrics.to_json_record()


class TestCheckpoints:
    def test_save_load_save_byte_identical(self, tmp_path):
        vocab, corpus, cfg = tiny_setup()
        model = Model(cfg.model, cfg.fusion, seed=0)
        opt = Adam(model.params, cfg)
        train_epoch(corpus, vocab, model, opt, cfg, epoch=1)
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        save_checkpoint(p1, model, opt, cfg, vocab, epoch=1)
        model2, opt2, meta = load_checkpoint(p1, cfg)
        save_checkpoint(p2, model2, opt2, cfg, vocab, epoch=1)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a.ckpt.json").read_bytes() == (tmp_path / "b.ckpt.json").read_bytes()

    def test_resume_matches_uninterrupted(self, tmp_path):
        vocab, corpus, cfg = tiny_setup(count=8)
        cfg4 = dataclasses.replace(cfg, epochs=4)
        straight = train(corpus, vocab, cfg4)

        cfg2 = dataclasses.replace(cfg, epochs=2)
        part1 = train(corpus, vocab, cfg2, out_dir=str(tmp_path / "run"))
        resumed = tr.resume(
            corpus, vocab, str(tmp_path / "run" / "model.ckpt"), cfg4
        )
        tail = [m.joint_loss for m in resumed.history]
        expected = [m.joint_loss for m in straight.history[2:]]
        assert len(tail) == 2
        np.testing.assert_allclose(tail, expected, rtol=1e-6)

    def test_fresh_run_overwrites_metrics_and_resume_appends(self, tmp_path):
        vocab, corpus, cfg = tiny_setup(count=8)
        single, twice = tmp_path / "single", tmp_path / "twice"
        train(corpus, vocab, cfg, out_dir=str(single))
        for _ in range(2):
            train(corpus, vocab, cfg, out_dir=str(twice))
        assert (twice / "metrics.jsonl").read_bytes() == (single / "metrics.jsonl").read_bytes()

        cfg3 = dataclasses.replace(cfg, epochs=3)
        tr.resume(corpus, vocab, str(twice / "model.ckpt"), cfg3, out_dir=str(twice))
        records = (twice / "metrics.jsonl").read_text().splitlines()
        assert [json.loads(line)["epoch"] for line in records] == [1, 2, 3]

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
            tr.resume(corpus, vocab, str(path), dataclasses.replace(cfg, epochs=3))

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
            load_checkpoint(path, cfg)

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
        assert loaded.state_arrays().keys() == model.state_arrays().keys()
        for name, array in model.state_arrays().items():
            assert loaded.params[name].data.tobytes() == array.tobytes()


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
        init_from_pretrained(target, path, "encoder", vocab.content_hash())
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
            if tr._is_ne_param(name)
        }
        init_from_pretrained(target, path, "encoder_decoder", vocab.content_hash())
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
            init_from_pretrained(target, path, "encoder", vocab.content_hash())

    def test_vocab_hash_mismatch(self, tmp_path):
        vocab, corpus, cfg = tiny_setup()
        donor, path = self.make_donor(tmp_path, vocab, corpus, cfg)
        target = Model(cfg.model, cfg.fusion, seed=0)
        with pytest.raises(ValueError, match="vocabulary"):
            init_from_pretrained(target, path, "encoder", "deadbeef")

    def test_unsupported_format_version(self, tmp_path):
        vocab, corpus, cfg = tiny_setup()
        donor, path = self.make_donor(tmp_path, vocab, corpus, cfg)
        sidecar = tmp_path / "donor.ckpt.json"
        sidecar.write_text(
            sidecar.read_text().replace('"format_version": 1', '"format_version": 9')
        )
        target = Model(cfg.model, cfg.fusion, seed=0)
        with pytest.raises(CheckpointError, match="version 9"):
            init_from_pretrained(target, path, "encoder", vocab.content_hash())

    def test_unknown_selection(self, tmp_path):
        vocab, corpus, cfg = tiny_setup()
        donor, path = self.make_donor(tmp_path, vocab, corpus, cfg)
        with pytest.raises(ValueError, match="selection"):
            init_from_pretrained(Model(cfg.model, cfg.fusion, seed=0), path, "decoder")
