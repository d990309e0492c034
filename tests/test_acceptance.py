"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
The desk-scale training runs are shared module fixtures so the whole
suite stays inside its runtime budgets.
"""

import dataclasses
import math
import time
from itertools import product

import numpy as np
import pytest

from ctcfuse import tensor as tz
from ctcfuse.alignment import GatingConfig, PathwayDecision, aef_align, gate
from ctcfuse.ctc import ctc_loss_op, min_frames, prefix_beam_nbest
from ctcfuse.data import desk_synth_config, synth_corpus
from ctcfuse.model import (
    METHOD_ALIGNED,
    METHOD_BASELINE,
    METHOD_FUSION,
    METHOD_NBEST,
    FusionConfig,
    Model,
    ModelConfig,
)
from ctcfuse.ctc import NBestList
from ctcfuse.tensor import Tensor
from ctcfuse.training import (
    TrainConfig,
    build_decoder_input,
    desk_train_config,
    init_from_pretrained,
    joint_loss,
    smoothed_cross_entropy,
    train,
)

from oracles import exhaustive_ctc_loss, exhaustive_ctc_scores, levenshtein_oracle, random_posterior
from toy import toy_config

BLANK = 0


def ctc_rows(lp: np.ndarray, targets):
    """``ctc_loss_op`` over one [T, V] posterior repeated once per target.

    As in training, a row is used only when it has enough frames for its target.
    """
    t_frames = lp.shape[0]
    use = [t_frames >= min_frames(target) for target in targets]
    batch = Tensor(np.repeat(lp[None], len(targets), axis=0))
    return ctc_loss_op(batch, [t_frames] * len(targets), targets, use, BLANK)[1]


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# shared desk-scale training runs (criteria 7, 8, 10, 11)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk():
    return synth_corpus(desk_synth_config(seed=7))


@pytest.fixture(scope="module")
def desk_runs(desk, tmp_path_factory):
    vocab, corpus = desk
    root = tmp_path_factory.mktemp("desk_runs")
    runs = {}
    timings = {}

    def timed(name, cfg, out_dir=None):
        start = time.perf_counter()
        runs[name] = train(corpus, vocab, cfg, out_dir=out_dir)
        timings[name] = time.perf_counter() - start

    base_cfg = dataclasses.replace(desk_train_config(vocab.size), stop_at_train_cer=0.05)
    timed("baseline", base_cfg, out_dir=str(root / "baseline"))
    timed("baseline_repeat", base_cfg, out_dir=str(root / "baseline_repeat"))

    ef_cfg = dataclasses.replace(
        desk_train_config(vocab.size, method=METHOD_FUSION), stop_at_train_cer=0.10
    )
    timed("ef", ef_cfg)
    aef_cfg = dataclasses.replace(
        desk_train_config(vocab.size, method=METHOD_ALIGNED), stop_at_train_cer=0.10
    )
    timed("aef", aef_cfg)
    ne_cfg = dataclasses.replace(
        desk_train_config(vocab.size, method=METHOD_NBEST), stop_at_train_cer=0.10
    )
    timed("ne", ne_cfg)

    warm_cfg = dataclasses.replace(
        aef_cfg,
        pretrain_path=str(root / "baseline" / "model.ckpt"),
        pretrain_selection="encoder",
    )
    timed("aef_warm", warm_cfg)

    return {"runs": runs, "timings": timings, "root": root, "vocab": vocab, "corpus": corpus}


# ---------------------------------------------------------------------------
# criterion 1: CTC loss equals the exhaustive path sum
# ---------------------------------------------------------------------------


def test_criterion_1_ctc_loss_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    checked = 0
    worst = 0.0
    while checked < 100:
        t_frames = int(rng.integers(1, 7))
        vocab = int(rng.integers(2, 5))
        tgt_len = int(rng.integers(0, 4))
        target = tuple(int(x) for x in rng.integers(1, vocab, size=tgt_len))
        lp = random_posterior(rng, t_frames, vocab)
        ref = exhaustive_ctc_loss(lp, target, BLANK)
        ours = float(ctc_rows(lp, [target]).losses[0])
        if math.isinf(ref):
            assert ours == math.inf
        else:
            rel = abs(ours - ref) / max(abs(ref), 1e-30)
            worst = max(worst, rel)
            assert rel < 1e-9, (ours, ref)
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        "ctc-loss-oracle-equivalence",
        worst < 1e-9 and elapsed < 30,
        f"(100 instances, max rel dev {worst:.2e}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 2: total path probability is conserved across all targets
# ---------------------------------------------------------------------------


def test_criterion_2_ctc_normalization():
    start = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for t_frames, vocab in [(2, 2), (3, 2), (3, 3), (4, 2), (4, 3)]:
        for _ in range(3):
            lp = random_posterior(rng, t_frames, vocab)
            targets = [
                target
                for length in range(t_frames + 1)
                for target in product(range(1, vocab), repeat=length)
            ]
            total = 0.0
            for loss in ctc_rows(lp, targets).losses.tolist():
                if math.isfinite(loss):
                    total += math.exp(-loss)
            worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - start
    report(
        2,
        "ctc-normalization",
        worst < 1e-9 and elapsed < 30,
        f"(max |sum-1| {worst:.2e}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 3: analytic gradients match central finite differences
# ---------------------------------------------------------------------------


def _toy_batchlike(vocab_size: int):
    """Two fixed utterances shaped for the toy model (T=6 -> 2 encoder frames)."""
    rng = np.random.default_rng(42)
    feats = rng.normal(size=(2, 6, 4)) * 0.5
    lengths = np.array([6, 6])
    transcripts = [(4, 5), (5, 6)]

    class _B:
        size = 2

    batch = _B()
    batch.features = feats
    batch.feat_lengths = lengths
    batch.transcripts = transcripts
    batch.utt_ids = ["g0", "g1"]
    return batch


def _frozen_hyps(method):
    if method == METHOD_BASELINE:
        return [None, None]
    if method == METHOD_FUSION:
        return [(4, 6), (5,)]  # equal length -> fuse; short by one -> ctc input
    if method == METHOD_ALIGNED:
        return [(4,), (5, 4, 6)]  # deletion and insertion cases
    return [
        NBestList(hypotheses=[((4,), -0.4), ((5, 6), -1.2)]),
        NBestList(hypotheses=[((6,), -0.3), ((6, 5), -1.5)]),
    ]


@pytest.fixture(scope="module")
def gradient_reports():
    results = {}
    total_start = time.perf_counter()

    # part A: the CTC loss gradient on random instances
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(5):
        lp = random_posterior(rng, 5, 4)
        target = (1, 2)
        grad = ctc_rows(lp, [target]).grad[0]
        step = 1e-6
        for t in range(5):
            for k in range(4):
                up, dn = lp.copy(), lp.copy()
                up[t, k] += step
                dn[t, k] -= step
                num = (
                    ctc_rows(up, [target]).losses[0] - ctc_rows(dn, [target]).losses[0]
                ) / (2 * step)
                denom = max(abs(num), abs(grad[t, k]), 1e-6)
                worst = max(worst, abs(num - grad[t, k]) / denom)
    results["ctc"] = worst

    # part B: full-model joint-loss gradients for every method
    for method in (METHOD_BASELINE, METHOD_FUSION, METHOD_ALIGNED, METHOD_NBEST):
        model_cfg = toy_config(vocab_size=8)
        kw = {"n": 2, "beam_width": 2} if method == METHOD_NBEST else {"alpha": 0.5}
        fusion = FusionConfig(method=method, **kw)
        cfg = TrainConfig(
            model=model_cfg, fusion=fusion, gating=GatingConfig(mode="absolute", t_l=2)
        )
        model = Model(model_cfg, fusion, seed=9)
        batch = _toy_batchlike(8)
        hyps = _frozen_hyps(method)

        class _V:
            blank_id, unk_id, sos_id, eos_id, pad_id, size = 0, 1, 2, 3, 3, 8

        vocab = _V()

        def f():
            model.zero_grad()
            enc = model.encode(batch.features, batch.feat_lengths)
            post = model.ctc_head(enc)
            dec = build_decoder_input(batch, model, cfg, vocab, hyps, enc.lengths)
            assert all(dec.ctc_reachable), "toy instances must keep CTC reachable"
            ctc_mean, _ = ctc_loss_op(
                post, enc.lengths, batch.transcripts, dec.ctc_reachable, BLANK
            )
            logits = model.decoder_forward(dec.input_emb, enc, dec.ne_memory)
            att = smoothed_cross_entropy(logits, dec.targets, dec.loss_mask, 0.1)
            return joint_loss(ctc_mean, att, 0.3)

        rep = tz.grad_check(f, model.params, step=1e-5, tolerance=1e-4)
        results[method] = rep["max_deviation"]

    results["elapsed"] = time.perf_counter() - total_start
    return results


def test_criterion_3_gradient_checks(gradient_reports):
    r = gradient_reports
    deviations = {k: v for k, v in r.items() if k != "elapsed"}
    ok = all(v < 1e-4 for v in deviations.values()) and r["elapsed"] < 300
    detail = ", ".join(f"{k}={v:.2e}" for k, v in deviations.items())
    report(3, "gradient-checks", ok, f"({detail}, {r['elapsed']:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 4: unbounded prefix beam equals the exhaustive ranking
# ---------------------------------------------------------------------------


def test_criterion_4_beam_vs_exhaustive():
    start = time.perf_counter()
    rng = np.random.default_rng(1004)
    instances = 0
    worst = 0.0
    for t_frames in (1, 2, 3):
        for vocab in (2, 3):
            for _ in range(5):
                lp = random_posterior(rng, t_frames, vocab)
                # a beam of 10**6 prunes none of the at most 3**3 candidates
                nbest = prefix_beam_nbest(lp[None], [t_frames], BLANK, 10**6, 10**6)[0]
                ref = exhaustive_ctc_scores(lp, BLANK)
                ranked = sorted(ref.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0]))
                assert len(nbest) == len(ranked)
                for (seq, score), (ref_seq, ref_p) in zip(nbest.hypotheses, ranked):
                    assert seq == ref_seq
                    rel = abs(score - math.log(ref_p)) / max(abs(math.log(ref_p)), 1e-30)
                    worst = max(worst, rel)
                instances += 1
    elapsed = time.perf_counter() - start
    report(
        4,
        "beam-vs-exhaustive",
        worst < 1e-9 and elapsed < 60,
        f"({instances} instances, max rel dev {worst:.2e}, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 5: alignment properties on 1000 random pairs plus the worked example
# ---------------------------------------------------------------------------


def test_criterion_5_alignment_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(1005)
    a_tok, b_tok, c_tok = 4, 5, 6
    pair = aef_align((a_tok, b_tok, c_tok, a_tok), (a_tok, c_tok, a_tok), BLANK)
    example_ok = pair.w_align == (a_tok, BLANK, c_tok, a_tok) and pair.y_align == (
        a_tok, b_tok, c_tok, a_tok,
    )
    checked = 0
    for _ in range(1000):
        la = int(rng.integers(1, 12))
        lb = int(rng.integers(0, 12))
        y = tuple(int(t) for t in rng.integers(1, 7, size=la))
        w = tuple(int(t) for t in rng.integers(1, 7, size=lb))
        p = aef_align(y, w, BLANK)
        assert tuple(t for t in p.y_align if t != BLANK) == y
        assert tuple(t for t in p.w_align if t != BLANK) == w
        assert len(p.y_align) == len(p.w_align)
        mism = sum(x != z for x, z in zip(p.y_align, p.w_align))
        assert mism == levenshtein_oracle(y, w)
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        5,
        "alignment-properties",
        example_ok and checked == 1000 and elapsed < 10,
        f"(1000 pairs + worked example, {elapsed:.1f}s)",
    )


# ---------------------------------------------------------------------------
# criterion 6: fusion at alpha=0 degenerates to the baseline loss
# ---------------------------------------------------------------------------


def test_criterion_6_fusion_degeneracy(desk):
    vocab, corpus = desk
    from ctcfuse.data import make_batches

    model_cfg = ModelConfig(vocab_size=vocab.size, feature_dim=8, dropout=0.0)
    ef_fusion = FusionConfig(method=METHOD_FUSION, alpha=0.0)
    cfg_ef = TrainConfig(model=model_cfg, fusion=ef_fusion, gating=GatingConfig())
    cfg_base = TrainConfig(model=model_cfg, fusion=FusionConfig(), gating=GatingConfig())

    model_ef = Model(model_cfg, ef_fusion, seed=77)
    model_base = Model(model_cfg, FusionConfig(), seed=77)

    batches = make_batches(corpus, 8, seed=5)[:5]
    worst = 0.0
    for batch in batches:
        losses = []
        for model, cfg in ((model_ef, cfg_ef), (model_base, cfg_base)):
            model.train(True)
            model.rng = np.random.default_rng(123)
            enc = model.encode(batch.features, batch.feat_lengths)
            post = model.ctc_head(enc)
            if cfg.fusion.method == METHOD_FUSION:
                # equal-length stand-in hypotheses: every utterance gates to fuse
                hyps = [tuple(4 for _ in y) for y in batch.transcripts]
            else:
                hyps = [None] * batch.size
            dec = build_decoder_input(batch, model, cfg, vocab, hyps, enc.lengths)
            if cfg.fusion.method == METHOD_FUSION:
                assert dec.pathway_counts["fuse"] == batch.size
            ctc_mean, _ = ctc_loss_op(
                post, enc.lengths, batch.transcripts, dec.ctc_reachable, vocab.blank_id
            )
            logits = model.decoder_forward(dec.input_emb, enc, dec.ne_memory)
            att = smoothed_cross_entropy(logits, dec.targets, dec.loss_mask, 0.1)
            losses.append(joint_loss(ctc_mean, att, 0.3).item())
        worst = max(worst, abs(losses[0] - losses[1]))
    report(6, "fusion-alpha0-degeneracy", worst < 1e-6, f"(5 batches, max |diff| {worst:.2e})")


# ---------------------------------------------------------------------------
# criterion 7: convergence at desk scale
# ---------------------------------------------------------------------------


def first_epoch_at_target(result, target: float):
    """The epoch whose measured train CER first reached ``target``, or None.

    ``train`` stops at the first measurement at or below the target, and
    its last epoch is always measured, so that epoch is the last one run.
    """
    *earlier, final = result.history
    assert all(m.train_cer is None or m.train_cer > target for m in earlier)
    return final.epoch if final.train_cer <= target else None


def test_criterion_7_desk_convergence(desk_runs):
    runs = desk_runs["runs"]
    timings = desk_runs["timings"]
    targets = {"baseline": 0.05, "ef": 0.10, "aef": 0.10, "ne": 0.10}
    details = []
    ok = True
    for name, target in targets.items():
        result = runs[name]
        hit = first_epoch_at_target(result, target)
        reached = hit is not None and hit <= 30
        ok = ok and reached
        details.append(f"{name}<{target:.0%}@{hit}")
    elapsed = sum(timings[k] for k in targets)
    ok = ok and elapsed < 900
    report(7, "desk-convergence", ok, f"({', '.join(details)}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# criterion 8: aligned-fusion blank counter decays
# ---------------------------------------------------------------------------


def test_criterion_8_blank_counter_trend(desk_runs):
    history = desk_runs["runs"]["aef"].history
    first = history[0].blanks_inserted
    last = history[-1].blanks_inserted
    ok = first > 0 and last < 0.5 * first
    report(8, "blank-counter-trend", ok, f"(epoch1={first}, final={last})")


# ---------------------------------------------------------------------------
# criterion 9: gating rule table including boundary equalities
# ---------------------------------------------------------------------------


def test_criterion_9_gating_rules():
    cases = [
        ("absolute", 10, 10, PathwayDecision.FUSE),
        ("absolute", 11, 10, PathwayDecision.CTC_AS_INPUT),
        ("absolute", 12, 10, PathwayDecision.CTC_AS_INPUT),  # |d| == t_l boundary
        ("absolute", 8, 10, PathwayDecision.CTC_AS_INPUT),  # boundary from below
        ("absolute", 13, 10, PathwayDecision.GROUND_TRUTH_ONLY),
        ("relative", 10, 10, PathwayDecision.FUSE),
        ("relative", 21, 20, PathwayDecision.CTC_AS_INPUT),
        ("relative", 23, 20, PathwayDecision.CTC_AS_INPUT),  # d/L == t_r boundary
        ("relative", 15, 10, PathwayDecision.GROUND_TRUTH_ONLY),
    ]
    failures = []
    for mode, len_ctc, len_gt, expected in cases:
        got = gate(len_ctc, len_gt, GatingConfig(mode=mode, t_l=2, t_r=0.15))
        if got != expected:
            failures.append((mode, len_ctc, len_gt, got, expected))
    report(9, "gating-rules", not failures, f"({len(cases)} cases){failures or ''}")


# ---------------------------------------------------------------------------
# criterion 10: selective pre-training mechanics and warm-start epochs
# ---------------------------------------------------------------------------


def test_criterion_10_pretraining(desk_runs):
    vocab = desk_runs["vocab"]
    donor_path = str(desk_runs["root"] / "baseline" / "model.ckpt")
    donor_arrays = tz.load_tensors(donor_path)

    aef_cfg = desk_train_config(vocab.size, method=METHOD_ALIGNED)
    fresh = Model(aef_cfg.model, aef_cfg.fusion, seed=123)
    before = {name: p.data.copy() for name, p in fresh.params.items()}
    init_from_pretrained(fresh, donor_path, "encoder", vocab)

    encoder_equal = all(
        fresh.params[n].data.tobytes() == donor_arrays[n].tobytes()
        for n in fresh.params
        if n.startswith(("encoder.", "ctc_head."))
    )
    decoder_untouched = all(
        fresh.params[n].data.tobytes() == before[n].tobytes()
        for n in fresh.params
        if n.startswith(("decoder.", "embed."))
    )

    cold = first_epoch_at_target(desk_runs["runs"]["aef"], 0.10)
    warm = first_epoch_at_target(desk_runs["runs"]["aef_warm"], 0.10)
    epochs_ok = warm is not None and cold is not None and warm <= cold
    ok = encoder_equal and decoder_untouched and epochs_ok
    report(
        10,
        "pretraining-mechanics",
        ok,
        f"(encoder bit-equal={encoder_equal}, decoder untouched={decoder_untouched}, "
        f"warm@{warm} vs cold@{cold})",
    )


# ---------------------------------------------------------------------------
# criterion 11: bit-identical metrics across identical runs
# ---------------------------------------------------------------------------


def test_criterion_11_determinism(desk_runs):
    root = desk_runs["root"]
    a = (root / "baseline" / "metrics.jsonl").read_bytes()
    b = (root / "baseline_repeat" / "metrics.jsonl").read_bytes()
    report(11, "determinism", a == b, f"({len(a)} bytes each)")
