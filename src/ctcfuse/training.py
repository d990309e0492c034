"""Joint multi-task training with CTC-hypothesis decoder inputs.

Every step: encode, CTC head, CTC loss, fresh hypotheses from the current
posterior, per-utterance decoder-input construction (gated fusion,
aligned fusion, or N-best memory), label-smoothed cross-entropy, joint
loss, backward, Adam update. A batch may mix all three input pathways;
masks keep padded and blank-target positions out of the loss.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ctcfuse import tensor as tz
from ctcfuse.alignment import GatingConfig, PathwayDecision, aef_align, gate
from ctcfuse.ctc import (
    CtcPosterior,
    NBestList,
    ctc_loss_op,
    greedy_1best,
    min_frames,
    prefix_beam_nbest,
)
from ctcfuse.data import Batch, DataError, Utterance, Vocabulary, make_batches, pad_id_rows
from ctcfuse.decode import DecodeConfig, decode_utterance, evaluate
from ctcfuse.model import (
    METHOD_ALIGNED,
    METHOD_BASELINE,
    METHOD_FUSION,
    METHOD_NBEST,
    FusionConfig,
    Model,
    ModelConfig,
)
from ctcfuse.tensor import NumericError, Tensor, load_tensors, save_tensors

CHECKPOINT_FORMAT_VERSION = 1


class CheckpointError(DataError, ValueError):
    """A checkpoint pair that cannot be read, rebuilt or used; the message names its path."""


@dataclass(frozen=True)
class TrainConfig:
    model: ModelConfig
    fusion: FusionConfig = field(default_factory=FusionConfig)
    gating: GatingConfig = field(default_factory=GatingConfig)
    ctc_weight: float = 0.3
    label_smoothing: float = 0.1
    lr_base: float = 0.03
    warmup_steps: int = 80
    beta1: float = 0.9
    beta2: float = 0.98
    adam_eps: float = 1e-9
    epochs: int = 30
    batch_size: int = 8
    seed: int = 7
    pretrain_path: str | None = None
    pretrain_selection: str | None = None  # "encoder" | "encoder_decoder"
    eval_every: int = 5
    stop_at_train_cer: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.ctc_weight <= 1.0:
            raise ValueError("ctc_weight must lie in [0, 1]")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        if min(self.epochs, self.batch_size, self.eval_every) < 1:
            raise ValueError("epochs, batch_size and eval_every must each be >= 1")
        if self.pretrain_selection not in (None, "encoder", "encoder_decoder"):
            raise ValueError(f"unknown pretrain selection {self.pretrain_selection!r}")


def desk_train_config(
    vocab_size: int,
    method: str = METHOD_BASELINE,
    seed: int = 7,
    feature_dim: int = 8,
) -> TrainConfig:
    """Desk-scale defaults: small model, dropout off, method-matched gating."""
    model_cfg = ModelConfig(vocab_size=vocab_size, feature_dim=feature_dim, dropout=0.0)
    if method == METHOD_FUSION:
        fusion = FusionConfig(method=method, alpha=0.5)
        gating = GatingConfig(mode="absolute", t_l=2)
    elif method == METHOD_ALIGNED:
        fusion = FusionConfig(method=method, alpha=0.5)
        gating = GatingConfig(mode="relative", t_r=0.15)
    elif method == METHOD_NBEST:
        fusion = FusionConfig(method=method, n=3, beam_width=5)
        gating = GatingConfig()
    else:
        fusion = FusionConfig()
        gating = GatingConfig()
    return TrainConfig(model=model_cfg, fusion=fusion, gating=gating, seed=seed)


@dataclass
class EpochMetrics:
    epoch: int
    joint_loss: float
    ctc_loss: float
    att_loss: float
    blanks_inserted: int
    pathway_counts: dict[str, int]
    ctc_unreachable_ids: list[str]  # utterances no CTC path could reach, in batch order
    nbest_incomplete: int  # utterances whose CTC N-best came back short
    utterances: int
    train_cer: float | None
    wall_time_s: float

    @property
    def ctc_unreachable(self) -> int:
        return len(self.ctc_unreachable_ids)

    def to_json_record(self) -> str:
        """Deterministic serialization: wall time stays out of the record.

        So do ``nbest_incomplete`` and the unreachable utterance ids (only
        their count is recorded), which keeps records byte-comparable with
        those of runs made before they were reported.
        """
        payload = {
            "epoch": self.epoch,
            "joint_loss": self.joint_loss,
            "ctc_loss": self.ctc_loss,
            "att_loss": self.att_loss,
            "blanks_inserted": self.blanks_inserted,
            "pathway_counts": self.pathway_counts,
            "ctc_unreachable": self.ctc_unreachable,
            "utterances": self.utterances,
            "train_cer": self.train_cer,
        }
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def joint_loss(l_ctc: Tensor, l_att: Tensor, lam: float) -> Tensor:
    """Interpolated multi-task objective ``lam * ctc + (1 - lam) * att``."""
    if not np.isfinite(l_ctc.data).all():
        raise NumericError("non-finite CTC loss")
    if not np.isfinite(l_att.data).all():
        raise NumericError("non-finite attention loss")
    return l_ctc * lam + l_att * (1.0 - lam)


def smoothed_cross_entropy(
    logits: Tensor, targets: np.ndarray, mask: np.ndarray, smoothing: float
) -> Tensor:
    """Masked label-smoothed CE, averaged over unmasked positions.

    The smoothed target puts ``1 - smoothing`` on the label and spreads
    ``smoothing`` uniformly over the remaining classes; masked positions
    contribute exactly zero gradient.
    """
    vocab = logits.shape[-1]
    logp = tz.log_softmax(logits, axis=-1)
    q = np.full(logits.shape, smoothing / (vocab - 1))
    rows = np.arange(targets.shape[0])[:, None]
    cols = np.arange(targets.shape[1])[None, :]
    q[rows, cols, targets] = 1.0 - smoothing
    q *= mask[..., None]
    denom = float(mask.sum())
    if denom == 0.0:
        raise ValueError("loss mask excludes every position")
    return (logp * Tensor(-q)).sum() * (1.0 / denom)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def lr_schedule(base: float, step: int, warmup: int) -> float:
    """Inverse-sqrt decay with linear warmup; peaks exactly at ``step == warmup``."""
    return base * min(step**-0.5, step * warmup**-1.5)


def adam_step(param, grad, m, v, step, lr, beta1=0.9, beta2=0.98, eps=1e-9):
    """One bias-corrected adaptive-moment update; returns (param, m, v)."""
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**step)
    v_hat = v / (1.0 - beta2**step)
    param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    return param, m, v


class Adam:
    """Adaptive-moment optimizer over a named parameter dict."""

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        self.params = params
        self.lr_base = cfg.lr_base
        self.warmup = cfg.warmup_steps
        self.beta1, self.beta2, self.eps = cfg.beta1, cfg.beta2, cfg.adam_eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    def step(self) -> float:
        self.step_count += 1
        lr = lr_schedule(self.lr_base, self.step_count, self.warmup)
        for name, p in self.params.items():
            grad = p.grad if p.grad is not None else np.zeros_like(p.data)
            p.data, self.m[name], self.v[name] = adam_step(
                p.data, grad, self.m[name], self.v[name],
                self.step_count, lr, self.beta1, self.beta2, self.eps,
            )
            if not np.isfinite(p.data).all():
                raise NumericError(f"non-finite parameter after update: {name}")
        return lr

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {"adam.step": np.array([self.step_count], dtype=np.int64)}
        for name in self.params:
            out[f"adam.m.{name}"] = self.m[name].copy()
            out[f"adam.v.{name}"] = self.v[name].copy()
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Restore the step count and moments; a malformed entry raises ``ValueError``."""
        step = arrays["adam.step"]
        if step.shape != (1,) or not step[0] >= 0:
            raise ValueError("adam.step must hold one non-negative count")
        self.step_count = int(step[0])
        for key, p in self.params.items():
            for kind, moments in (("m", self.m), ("v", self.v)):
                entry = arrays[f"adam.{kind}.{key}"]
                if entry.shape != p.shape:
                    raise ValueError(f"adam.{kind}.{key} has shape {entry.shape}, not {p.shape}")
                moments[key] = entry.copy()


# ---------------------------------------------------------------------------
# decoder-input construction
# ---------------------------------------------------------------------------


@dataclass
class DecoderInputs:
    input_emb: Tensor  # [B, L, d]
    targets: np.ndarray  # [B, L] int64
    loss_mask: np.ndarray  # [B, L] float64
    pathway_counts: dict[str, int]
    blanks_inserted: int
    ctc_reachable: list[bool]
    ne_memory: Tensor | None
    y_rows: list[list[int]]
    w_rows: list[list[int]]
    alphas: np.ndarray


def compute_ctc_hypotheses(
    log_probs: np.ndarray,
    lengths: np.ndarray,
    fusion: FusionConfig,
    blank_id: int,
):
    """Fresh per-utterance hypotheses from the current posterior (detached).

    Greedy 1-best for the fusion methods, prefix-beam N-best for the
    memory method, None per utterance for the baseline.
    """
    out = []
    for i in range(log_probs.shape[0]):
        post = CtcPosterior(log_probs[i, : lengths[i]], blank_id)
        if fusion.method in (METHOD_FUSION, METHOD_ALIGNED):
            out.append(greedy_1best(post))
        elif fusion.method == METHOD_NBEST:
            out.append(prefix_beam_nbest(post, fusion.beam_width, fusion.n))
        else:
            out.append(None)
    return out


def _fit_length(seq, target_len: int, pad_id: int) -> list[int]:
    """Truncate or right-pad so teacher-forcing steps align with the targets."""
    fitted = list(seq[:target_len])
    fitted += [pad_id] * (target_len - len(fitted))
    return fitted


def build_decoder_input(
    batch: Batch,
    model: Model,
    cfg: TrainConfig,
    vocab: Vocabulary,
    hyps: list,
    enc_lengths: np.ndarray,
) -> DecoderInputs:
    """Assemble per-utterance decoder inputs, targets, and loss masks.

    Pathways: equal lengths fuse reference and hypothesis embeddings;
    close lengths feed the hypothesis (aligned first for the aligned
    method); distant lengths fall back to plain teacher forcing.
    Utterances whose target cannot be reached by any CTC path are forced
    to plain teacher forcing and excluded from the CTC term upstream.
    """
    method = cfg.fusion.method
    sos, eos, blank = vocab.sos_id, vocab.eos_id, vocab.blank_id
    counts = {d.value: 0 for d in PathwayDecision}
    blanks_total = 0
    reachable: list[bool] = []
    y_rows: list[list[int]] = []
    w_rows: list[list[int]] = []
    tgt_rows: list[list[int]] = []
    aligned = np.zeros(batch.size, dtype=bool)  # rows whose blank targets are masked
    alphas = np.zeros(batch.size)

    for i, y in enumerate(batch.transcripts):
        y = list(y)
        can_reach = int(enc_lengths[i]) >= min_frames(y)
        reachable.append(can_reach)
        y_in, w_in, tgt = [sos] + y, [sos] + y, y + [eos]
        decision = PathwayDecision.GROUND_TRUTH_ONLY

        if method in (METHOD_FUSION, METHOD_ALIGNED):
            w = list(hyps[i])
            pair = None
            if method == METHOD_ALIGNED:
                # align every utterance: the blank counter tracks raw CTC
                # output quality, including utterances later demoted
                pair = aef_align(tuple(y), tuple(w), blank)
                blanks_total += pair.blanks_inserted
            decision = gate(len(w), len(y), cfg.gating)
            if not can_reach:
                decision = PathwayDecision.GROUND_TRUTH_ONLY
            if decision is not PathwayDecision.GROUND_TRUTH_ONLY:
                if pair is not None:
                    y_in = [sos] + list(pair.y_align)
                    w_in = [sos] + list(pair.w_align)
                    tgt = list(pair.y_align) + [eos]
                    aligned[i] = True
                    alphas[i] = cfg.fusion.alpha
                elif decision is PathwayDecision.FUSE:
                    w_in = [sos] + w
                    alphas[i] = cfg.fusion.alpha
                else:  # CTC_AS_INPUT: the hypothesis replaces the reference input
                    w_in = [sos] + _fit_length(w, len(y), eos)
                    alphas[i] = 1.0
        counts[decision.value] += 1
        y_rows.append(y_in)
        w_rows.append(w_in)
        tgt_rows.append(tgt)

    # the three rows of an utterance have one length
    y_ids, w_ids, targets = (pad_id_rows(rows, vocab.pad_id) for rows in (y_rows, w_rows, tgt_rows))
    in_row = np.arange(targets.shape[1]) < np.array([len(r) for r in tgt_rows])[:, None]
    mask = (in_row & ~(aligned[:, None] & (targets == blank))).astype(np.float64)

    emb_y = model.embed_tokens(y_ids)
    if np.all(alphas == 0.0):  # plain teacher forcing, bit for bit (acceptance criterion 6)
        input_emb = emb_y
    else:
        emb_w = model.embed_tokens(w_ids)
        coef = Tensor(alphas[:, None, None])
        input_emb = emb_w * coef + emb_y * (1.0 - coef)

    ne_memory = model.ne_memory(hyps, vocab.pad_id) if method == METHOD_NBEST else None

    return DecoderInputs(
        input_emb=input_emb,
        targets=targets,
        loss_mask=mask,
        pathway_counts=counts,
        blanks_inserted=blanks_total,
        ctc_reachable=reachable,
        ne_memory=ne_memory,
        y_rows=y_rows,
        w_rows=w_rows,
        alphas=alphas,
    )


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class StepStats:
    joint: float
    ctc: float
    att: float
    blanks_inserted: int
    pathway_counts: dict[str, int]
    unreachable_ids: list[str]  # utterances left out of the CTC term
    nbest_incomplete: int
    size: int
    reachable: int

    @property
    def unreachable(self) -> int:
        return len(self.unreachable_ids)


def run_training_step(
    batch: Batch,
    model: Model,
    optimizer: Adam,
    cfg: TrainConfig,
    vocab: Vocabulary,
) -> StepStats:
    enc = model.encode(batch.features, batch.feat_lengths)
    posterior = model.ctc_head(enc)
    hyps = compute_ctc_hypotheses(posterior.data, enc.lengths, cfg.fusion, vocab.blank_id)
    dec = build_decoder_input(batch, model, cfg, vocab, hyps, enc.lengths)

    ctc_mean, ctc = ctc_loss_op(
        posterior, enc.lengths, batch.transcripts, dec.ctc_reachable, vocab.blank_id
    )
    logits = model.decoder_forward(dec.input_emb, enc, dec.ne_memory)
    att = smoothed_cross_entropy(logits, dec.targets, dec.loss_mask, cfg.label_smoothing)
    total = joint_loss(ctc_mean, att, cfg.ctc_weight)

    total.backward()
    optimizer.step()
    model.zero_grad()

    return StepStats(
        joint=total.item(),
        ctc=ctc_mean.item(),
        att=att.item(),
        blanks_inserted=dec.blanks_inserted,
        pathway_counts=dec.pathway_counts,
        unreachable_ids=[batch.utt_ids[i] for i in np.flatnonzero(~ctc.used)],
        nbest_incomplete=sum(isinstance(h, NBestList) and h.incomplete for h in hyps),
        size=batch.size,
        reachable=int(ctc.used.sum()),
    )


def train_epoch(
    corpus: list[Utterance],
    vocab: Vocabulary,
    model: Model,
    optimizer: Adam,
    cfg: TrainConfig,
    epoch: int,
) -> EpochMetrics:
    """One deterministic pass: batch order and dropout derive from (seed, epoch)."""
    start = time.perf_counter()
    model.train(True)
    model.rng = np.random.default_rng(cfg.seed * 7919 + epoch)
    batches = make_batches(corpus, cfg.batch_size, seed=cfg.seed * 100003 + epoch)
    totals = {"joint": 0.0, "ctc": 0.0, "att": 0.0}
    blanks = incomplete = seen = reachable = 0
    unreachable_ids: list[str] = []
    counts = {d.value: 0 for d in PathwayDecision}
    for batch_idx, batch in enumerate(batches):
        try:
            stats = run_training_step(batch, model, optimizer, cfg, vocab)
        except (NumericError, FloatingPointError) as err:
            raise NumericError(
                f"epoch {epoch} batch {batch_idx} ({batch.utt_ids[0]}...): {err}"
            ) from err
        totals["joint"] += stats.joint * stats.size
        totals["att"] += stats.att * stats.size
        totals["ctc"] += stats.ctc * stats.reachable
        blanks += stats.blanks_inserted
        unreachable_ids += stats.unreachable_ids
        incomplete += stats.nbest_incomplete
        seen += stats.size
        reachable += stats.reachable
        for key, val in stats.pathway_counts.items():
            counts[key] += val
    model.train(False)
    return EpochMetrics(
        epoch=epoch,
        joint_loss=totals["joint"] / seen,
        ctc_loss=totals["ctc"] / reachable if reachable else math.inf,
        att_loss=totals["att"] / seen,
        blanks_inserted=blanks,
        pathway_counts=counts,
        ctc_unreachable_ids=unreachable_ids,
        nbest_incomplete=incomplete,
        utterances=seen,
        train_cer=None,
        wall_time_s=time.perf_counter() - start,
    )


@dataclass
class TrainResult:
    model: Model
    optimizer: Adam
    history: list[EpochMetrics]
    first_epoch_at_target: int | None
    final_train_cer: float | None


METRICS_FILE = "metrics.jsonl"
# what every epoch appends to in a run directory: its record, its log line
_EPOCH_FILES = (METRICS_FILE, "train.log")
# every file a training run owns in its directory
_RUN_FILES = (
    "model.ckpt", "model.ckpt.json", *_EPOCH_FILES, "resolved_config.json", "run_meta.json"
)


def train(
    corpus: list[Utterance],
    vocab: Vocabulary,
    cfg: TrainConfig,
    out_dir: str | None = None,
    log=None,
    resolved_config: dict | None = None,
    run_meta: dict | None = None,
) -> TrainResult:
    """Full run: init (optionally from a donor checkpoint), epochs, metrics.

    The model is built from ``cfg.seed`` and the donor ``cfg`` names, if
    any, is read (it may be ``out_dir``'s own ``model.ckpt``) before
    ``out_dir`` is touched. Then every file a run owns there is removed,
    so the directory never mixes two runs, also when this one fails;
    ``resolved_config`` and ``run_meta``, when given, are written as JSON,
    and ``metrics.jsonl`` and ``train.log`` start empty. :func:`resume`
    appends to both.

    Train CER is measured by greedy attention decoding every
    ``eval_every`` epochs (and on the final epoch); when
    ``stop_at_train_cer`` is set the run stops at the first measurement
    at or below it. A non-finite value there raises :class:`NumericError`
    naming the utterance.
    """
    model = Model(cfg.model, cfg.fusion, seed=cfg.seed)
    if cfg.pretrain_path:
        init_from_pretrained(
            model, cfg.pretrain_path, cfg.pretrain_selection or "encoder", vocab.content_hash()
        )
    optimizer = Adam(model.params, cfg)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        for name in _RUN_FILES:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))
        records = {"resolved_config.json": resolved_config, "run_meta.json": run_meta}
        for name, record in records.items():
            if record is not None:
                with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=2, sort_keys=True)
                    fh.write("\n")
        for name in _EPOCH_FILES:
            open(os.path.join(out_dir, name), "w", encoding="utf-8").close()
    return _train_loop(corpus, vocab, model, optimizer, cfg, out_dir, log, start_epoch=1)


def resume(
    corpus: list[Utterance],
    vocab: Vocabulary,
    checkpoint_path: str,
    cfg: TrainConfig,
    out_dir: str | None = None,
    log=None,
) -> TrainResult:
    """Continue a run from a checkpoint; epoch-derived seeds keep it exact."""
    model, optimizer, meta = load_checkpoint(checkpoint_path, cfg)
    return _train_loop(
        corpus, vocab, model, optimizer, cfg, out_dir, log, start_epoch=meta["epoch"] + 1
    )


def _train_loop(corpus, vocab, model, optimizer, cfg, out_dir, log, start_epoch) -> TrainResult:
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)

    history: list[EpochMetrics] = []
    first_at_target = None
    final_cer = None
    for epoch in range(start_epoch, cfg.epochs + 1):
        metrics = train_epoch(corpus, vocab, model, optimizer, cfg, epoch)
        measure = epoch % cfg.eval_every == 0 or epoch == cfg.epochs
        if measure:
            greedy = DecodeConfig(beam=1)
            report = evaluate(corpus, lambda utt: decode_utterance(utt, model, greedy, vocab)[0])
            metrics.train_cer = report.corpus_cer
            final_cer = metrics.train_cer
        history.append(metrics)
        line = (
            f"epoch {epoch:3d} joint={metrics.joint_loss:.4f} ctc={metrics.ctc_loss:.4f} "
            f"att={metrics.att_loss:.4f} blanks={metrics.blanks_inserted} "
            f"nbest_incomplete={metrics.nbest_incomplete} "
            f"ctc_unreachable={','.join(metrics.ctc_unreachable_ids) or '-'} "
            f"cer={'-' if metrics.train_cer is None else f'{metrics.train_cer:.4f}'} "
            f"wall={metrics.wall_time_s:.2f}s"
        )
        if out_dir:
            for name, text in zip(_EPOCH_FILES, (metrics.to_json_record(), line)):
                with open(os.path.join(out_dir, name), "a", encoding="utf-8") as fh:
                    fh.write(text + "\n")
        if log is not None:
            log(line)
        if metrics.train_cer is not None and first_at_target is None:
            target = cfg.stop_at_train_cer
            if target is not None and metrics.train_cer <= target:
                first_at_target = epoch
                break
    if out_dir:
        save_checkpoint(os.path.join(out_dir, "model.ckpt"), model, optimizer, cfg, vocab,
                        epoch=history[-1].epoch if history else 0)
    return TrainResult(
        model=model,
        optimizer=optimizer,
        history=history,
        first_epoch_at_target=first_at_target,
        final_train_cer=final_cer,
    )


# ---------------------------------------------------------------------------
# checkpoints and selective initialization
# ---------------------------------------------------------------------------


# the TrainConfig fields a sidecar's "optimizer" object stores
_OPTIMIZER_SETTINGS = ("lr_base", "warmup_steps", "beta1", "beta2", "adam_eps")


def save_checkpoint(path, model: Model, optimizer: Adam, cfg: TrainConfig,
                    vocab: Vocabulary, epoch: int) -> None:
    """Binary tensor container plus a JSON sidecar at ``path`` / ``path.json``.

    Each is written to a temporary name beside its target, then moved into
    place; a failed save leaves the previous pair and no temporary behind.
    The sidecar's ``optimizer`` object holds the settings of ``cfg`` that
    ``optimizer`` was built from, under the names :func:`load_checkpoint` reads.
    """
    arrays = model.state_arrays()
    arrays.update(optimizer.state_arrays())
    sidecar = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model_config": asdict(model.config),
        "fusion": asdict(model.fusion),
        "method": model.fusion.method,
        "vocab_hash": vocab.content_hash(),
        "epoch": epoch,
        "optimizer": {key: getattr(cfg, key) for key in _OPTIMIZER_SETTINGS},
    }
    targets = (str(path), str(path) + ".json")
    temps = tuple(target + ".tmp" for target in targets)
    try:
        save_tensors(temps[0], arrays)
        with open(temps[1], "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for temp, target in zip(temps, targets):
            os.replace(temp, target)
    except BaseException:
        for temp in temps:
            if os.path.exists(temp):
                os.remove(temp)
        raise


def load_checkpoint(path, cfg: TrainConfig | None = None) -> tuple[Model, Adam, dict]:
    """Rebuild model and optimizer state from a checkpoint pair.

    Any failure to read or rebuild the pair raises :class:`CheckpointError`.
    """
    try:
        with open(str(path) + ".json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        if not isinstance(sidecar, dict):
            raise ValueError("sidecar is not a JSON object")
        if sidecar.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"checkpoint format version {sidecar.get('format_version')} unsupported"
            )
        epoch = sidecar["epoch"]
        if isinstance(epoch, bool) or not isinstance(epoch, int) or epoch < 0:
            raise ValueError(f"epoch {epoch!r} is not a non-negative integer")
        model_sec = {**sidecar["model_config"]}
        # sidecars written while ModelConfig had this option name its one value
        pos_encoding = model_sec.pop("pos_encoding", "sinusoidal")
        if pos_encoding != "sinusoidal":
            raise ValueError(f"unknown positional encoding {pos_encoding!r}")
        model_cfg = ModelConfig(**model_sec)
        fusion = FusionConfig(**sidecar["fusion"])
        model = Model(model_cfg, fusion, seed=0)
        arrays = load_tensors(path)
        model.load_state_arrays({k: v for k, v in arrays.items() if not k.startswith("adam.")})
        if cfg is None:
            opt_meta = sidecar["optimizer"]
            settings = {key: opt_meta[key] for key in _OPTIMIZER_SETTINGS}
            cfg = TrainConfig(model=model_cfg, fusion=fusion, **settings)
        optimizer = Adam(model.params, cfg)
        optimizer.load_state_arrays(arrays)
    except (OSError, ValueError, TypeError, KeyError, ArithmeticError) as err:
        raise CheckpointError(f"{path}: unreadable checkpoint: {err}") from err
    return model, optimizer, sidecar


_SELECTION_PREFIXES = {
    "encoder": ("encoder.", "ctc_head."),
    "encoder_decoder": ("encoder.", "ctc_head.", "decoder.", "embed."),
}


def _is_ne_param(name: str) -> bool:
    return name.startswith("ne.") or ".ne." in name or ".nproj." in name


def init_from_pretrained(
    model: Model, checkpoint_path, selection: str, vocab_hash: str | None = None
) -> Model:
    """Overwrite the selected parameter groups from a donor checkpoint.

    ``encoder`` covers the encoder stack and the CTC head;
    ``encoder_decoder`` additionally covers the decoder stack and the
    shared embedding table. N-best-memory parameters are never loaded.
    """
    if selection not in _SELECTION_PREFIXES:
        raise ValueError(f"unknown selection {selection!r}")
    donor, _, sidecar = load_checkpoint(checkpoint_path)
    prefixes = _SELECTION_PREFIXES[selection]
    selected = [n for n in model.params if n.startswith(prefixes) and not _is_ne_param(n)]
    missing = sorted(n for n in selected if n not in donor.params)
    mismatched = sorted(
        n for n in selected if n in donor.params and donor.params[n].shape != model.params[n].shape
    )
    if vocab_hash is not None and sidecar.get("vocab_hash") != vocab_hash:
        problem = "donor checkpoint was trained with a different vocabulary"
    elif missing:
        problem = f"donor checkpoint missing parameters: {missing}"
    elif mismatched:
        problem = f"shape mismatch loading parameters: {mismatched}"
    else:
        for name in selected:
            model.params[name].data = donor.params[name].data.astype(model.params[name].data.dtype)
        return model
    raise CheckpointError(f"{checkpoint_path}: {problem}")
