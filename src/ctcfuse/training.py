"""Joint multi-task training with CTC-hypothesis decoder inputs.

Every step: encode, CTC head, CTC loss, fresh hypotheses from the current
posterior, per-utterance decoder-input construction (gated fusion,
aligned fusion, or N-best memory), label-smoothed cross-entropy, joint
loss, backward, Adam update. A batch may mix all three input pathways;
masks keep padded and blank-target positions out of the loss.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import operator
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ctcfuse import tensor as tz
from ctcfuse.alignment import GatingConfig, PathwayDecision, aef_align, gate
from ctcfuse.ctc import NBestLists, ctc_loss_op, greedy_1best, prefix_beam_nbest
from ctcfuse.data import (Batch, DataError, Utterance, Vocabulary, build_config, json_fits,
                          make_batches, pad_id_rows)
from ctcfuse.decode import DecodeConfig, decode_utterance, evaluate
from ctcfuse.model import (
    METHOD_ALIGNED,
    METHOD_BASELINE,
    METHOD_FUSION,
    METHOD_NBEST,
    FusionConfig,
    Model,
    ModelConfig,
    param_count,
    param_specs,
)
from ctcfuse.tensor import NumericError, Tensor, load_tensors, save_tensors

CHECKPOINT_FORMAT_VERSION = 1
ADAM_CHUNK = 32_768  # floats an Adam step updates at a time: its two buffers stay cache-sized


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
        for key in ("label_smoothing", "beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ValueError(f"{key} must lie in [0, 1)")
        if not (math.isfinite(self.lr_base) and self.lr_base >= 0.0):
            raise ValueError("lr_base must be finite and >= 0")
        if not (math.isfinite(self.adam_eps) and self.adam_eps > 0.0):
            raise ValueError("adam_eps must be finite and > 0")
        if self.stop_at_train_cer is not None and not self.stop_at_train_cer >= 0.0:
            raise ValueError("stop_at_train_cer must be null or >= 0")
        if self.warmup_steps < 1:
            raise ValueError("warmup_steps must be >= 1")
        if min(self.epochs, self.batch_size, self.eval_every) < 1:
            raise ValueError("epochs, batch_size and eval_every must each be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.pretrain_selection not in (None, "encoder", "encoder_decoder"):
            raise ValueError(f"unknown pretrain selection {self.pretrain_selection!r}")
        if self.pretrain_selection is not None and not self.pretrain_path:
            raise ValueError(f"pretrain_selection {self.pretrain_selection!r} needs a pretrain_path")


def desk_train_config(
    vocab_size: int,
    method: str = METHOD_BASELINE,
    seed: int = 7,
    feature_dim: int = 8,
) -> TrainConfig:
    """Desk-scale defaults: small model, dropout off, method-matched gating."""
    model_cfg = ModelConfig(vocab_size=vocab_size, feature_dim=feature_dim)
    gating = GatingConfig(mode="relative") if method == METHOD_ALIGNED else GatingConfig()
    return TrainConfig(model=model_cfg, fusion=FusionConfig(method=method), gating=gating, seed=seed)


@dataclass
class EpochMetrics:
    epoch: int
    joint_loss: float
    ctc_loss: float | None  # None: no utterance of the epoch was CTC-reachable
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


class Adam:
    """Adaptive-moment optimizer over a model's parameters (Kingma & Ba, 2015).

    Steps update the parameter arena ``params.flat`` in place and keep both
    moments in two more flat float64 arenas in ``params`` order, as ZeRO
    packs its buffers (Rajbhandari et al., 2020). A step runs a dozen numpy
    calls per chunk of the arenas (consecutive parameters up to
    ``ADAM_CHUNK`` floats, or one larger parameter) with a chunk-sized
    gradient buffer and a chunk-sized scratch buffer.
    """

    def __init__(self, params: tz.Parameters, cfg: TrainConfig,
                 state: tuple[int, np.ndarray, np.ndarray] | None = None):
        """``state`` is a saved (step count, first-moment arena, second-moment arena), as
        :func:`load_checkpoint` returns it; without it all start at 0.

        The two arenas, float64 in ``params`` order, become the moments
        themselves, not copies; one of another size or dtype raises ``ValueError``.
        """
        self.params = params
        self.lr_base = cfg.lr_base
        self.warmup = cfg.warmup_steps
        self.beta1, self.beta2, self.eps = cfg.beta1, cfg.beta2, cfg.adam_eps
        if state is None:
            state = (0, np.zeros(params.flat.size), np.zeros(params.flat.size))
        self.step_count, *moments = state
        for arena in moments:
            if arena.dtype != np.float64 or arena.shape != params.flat.shape:
                raise ValueError(f"a moment arena of {arena.size} {arena.dtype} values; these "
                                 f"parameters need {params.flat.size} float64")
        shapes = {name: p.shape for name, p in params.items()}
        self.m, self.v = (tz.views(arena, shapes) for arena in moments)
        chunks = []  # [parameters, floats]: consecutive ones up to ADAM_CHUNK floats, or one larger one
        for p in params.values():
            if not chunks or chunks[-1][1] + p.data.size > ADAM_CHUNK:
                chunks.append([[], 0])
            chunks[-1][0].append(p)
            chunks[-1][1] += p.data.size
        buffers = [np.empty(max((size for _, size in chunks), default=0)) for _ in range(2)]
        ends = np.cumsum([size for _, size in chunks], dtype=int)
        # (parameters, their slices of the three arenas and of the two buffers)
        self._chunks = [(group, *(arena[end - size : end] for arena in (params.flat, *moments)),
                         *(buffer[:size] for buffer in buffers)) for (group, size), end in zip(chunks, ends)]

    def step(self) -> float:
        self.step_count += 1
        lr = lr_schedule(self.lr_base, self.step_count, self.warmup)
        m_scale, v_scale = 1.0 - self.beta1**self.step_count, 1.0 - self.beta2**self.step_count
        finite = True
        for group, flat, m, v, g, t in self._chunks:
            np.concatenate([np.zeros(p.shape) if p.grad is None else p.grad for p in group], axis=None, out=g)
            # the operations, in order, of m = b1 * m + (1 - b1) * g, v = b2 * v + (1 - b2) * g * g
            # and p = p - lr * (m / m_scale) / (sqrt(v / v_scale) + eps): the same bits
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=t)
            v *= self.beta2
            v += np.multiply(np.multiply(g, 1.0 - self.beta2, out=t), g, out=t)
            np.multiply(np.divide(m, m_scale, out=t), lr, out=t)
            u = g  # the gradient is spent: its buffer takes the denominator
            np.add(np.sqrt(np.divide(v, v_scale, out=u), out=u), self.eps, out=u)
            flat -= np.divide(t, u, out=t)
            finite = finite and np.isfinite(flat).all()
        if not finite:
            name = next(name for name, p in self.params.items() if not np.isfinite(p.data).all())
            raise NumericError(f"non-finite parameter after update: {name}")
        return lr


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
    ne_memory: Tensor | None


def compute_ctc_hypotheses(
    log_probs: np.ndarray,
    lengths: np.ndarray,
    fusion: FusionConfig,
    blank_id: int,
):
    """Fresh per-utterance hypotheses from the current posterior (detached).

    One search over the padded batch, which checks the real frames once:
    greedy 1-best for the fusion methods, prefix-beam N-best for the
    memory method. The baseline reads no posterior and gets None per
    utterance.
    """
    if fusion.method == METHOD_BASELINE:
        return [None] * log_probs.shape[0]
    if fusion.method == METHOD_NBEST:
        return prefix_beam_nbest(log_probs, lengths, blank_id, fusion.beam_width, fusion.n)
    return greedy_1best(log_probs, lengths, blank_id)


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
    reachable: np.ndarray,
) -> DecoderInputs:
    """Assemble per-utterance decoder inputs, targets, and loss masks.

    Pathways: equal lengths fuse reference and hypothesis embeddings;
    close lengths feed the hypothesis (aligned first for the aligned
    method); distant lengths fall back to plain teacher forcing.
    ``reachable`` is the CTC loss's ``used`` mask: an utterance whose
    target no CTC path reaches gets plain teacher forcing, as it gets no
    CTC term.
    """
    method = cfg.fusion.method
    sos, eos, blank = vocab.sos_id, vocab.eos_id, vocab.blank_id
    counts = {d.value: 0 for d in PathwayDecision}
    blanks_total = 0
    y_rows: list[list[int]] = []
    w_rows: list[list[int]] = []
    tgt_rows: list[list[int]] = []
    aligned = np.zeros(batch.size, dtype=bool)  # rows whose blank targets are masked
    alphas = np.zeros(batch.size)

    for i, y in enumerate(batch.transcripts):
        y = list(y)
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
            if not reachable[i]:
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
        coef = alphas[:, None, None]
        input_emb = emb_w * Tensor(coef) + emb_y * Tensor(1.0 - coef)

    ne_memory = model.ne_memory(hyps, vocab.pad_id) if method == METHOD_NBEST else None

    return DecoderInputs(
        input_emb=input_emb,
        targets=targets,
        loss_mask=mask,
        pathway_counts=counts,
        blanks_inserted=blanks_total,
        ne_memory=ne_memory,
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
    ctc_mean, ctc = ctc_loss_op(posterior, enc.lengths, batch.transcripts, vocab.blank_id)
    dec = build_decoder_input(batch, model, cfg, vocab, hyps, ctc.used)
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
        nbest_incomplete=hyps.incomplete if isinstance(hyps, NBestLists) else 0,
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
    steps: list[StepStats] = []
    for batch_idx, batch in enumerate(batches):
        where = f"epoch {epoch} batch {batch_idx} ({batch.utt_ids[0]}...)"
        with tz.numeric_failure_names(where), tz.fp_guard():
            steps.append(run_training_step(batch, model, optimizer, cfg, vocab))
    model.train(False)
    seen, reachable = sum(s.size for s in steps), sum(s.reachable for s in steps)

    def mean(term, rows: int) -> float:  # in batch order: sum() of floats compensates from 3.12
        return functools.reduce(operator.add, map(term, steps), 0.0) / rows
    return EpochMetrics(
        epoch=epoch,
        joint_loss=mean(lambda s: s.joint * s.size, seen),
        ctc_loss=mean(lambda s: s.ctc * s.reachable, reachable) if reachable else None,
        att_loss=mean(lambda s: s.att * s.size, seen),
        blanks_inserted=sum(s.blanks_inserted for s in steps),
        pathway_counts={d.value: sum(s.pathway_counts[d.value] for s in steps) for d in PathwayDecision},
        ctc_unreachable_ids=[uid for s in steps for uid in s.unreachable_ids],
        nbest_incomplete=sum(s.nbest_incomplete for s in steps),
        utterances=seen,
        train_cer=None,
        wall_time_s=time.perf_counter() - start,
    )


@dataclass
class TrainResult:
    """The trained model and one record per epoch run.

    ``history[-1]`` is always measured: its ``train_cer`` is the final
    train CER, and when ``stop_at_train_cer`` was reached its ``epoch`` is
    the first epoch at or below the target.
    """

    model: Model
    history: list[EpochMetrics]


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
    and each epoch appends its record to ``metrics.jsonl`` and its line to
    ``train.log``, both of which start empty.

    Train CER is measured by greedy attention decoding every
    ``eval_every`` epochs (and on the final epoch); when
    ``stop_at_train_cer`` is set the run stops at the first measurement
    at or below it, so the last epoch is always measured: the final train
    CER, and the epoch that reached the target, are read from
    ``history[-1]``. A non-finite value there raises
    :class:`NumericError` naming the utterance.
    """
    model = Model(cfg.model, cfg.fusion, seed=cfg.seed)
    if cfg.pretrain_path:
        init_from_pretrained(model, cfg.pretrain_path, cfg.pretrain_selection or "encoder", vocab)
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

    history: list[EpochMetrics] = []
    for epoch in range(1, cfg.epochs + 1):
        metrics = train_epoch(corpus, vocab, model, optimizer, cfg, epoch)
        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs:
            greedy = DecodeConfig(beam=1)
            report = evaluate(corpus, lambda utt: decode_utterance(utt, model, greedy, vocab)[0])
            metrics.train_cer = report.corpus_cer
        history.append(metrics)
        line = (
            f"epoch {epoch:3d} joint={metrics.joint_loss:.4f} "
            f"ctc={'-' if metrics.ctc_loss is None else f'{metrics.ctc_loss:.4f}'} "
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
        target = cfg.stop_at_train_cer
        if target is not None and metrics.train_cer is not None and metrics.train_cer <= target:
            break
    if out_dir:
        save_checkpoint(os.path.join(out_dir, "model.ckpt"), model, optimizer, cfg, vocab,
                        epoch=history[-1].epoch)
    return TrainResult(model=model, history=history)


# ---------------------------------------------------------------------------
# checkpoints and selective initialization
# ---------------------------------------------------------------------------


# the TrainConfig fields a sidecar's "optimizer" object stores
_OPTIMIZER_SETTINGS = ("lr_base", "warmup_steps", "beta1", "beta2", "adam_eps")


def save_checkpoint(path, model: Model, optimizer: Adam, cfg: TrainConfig,
                    vocab: Vocabulary, epoch: int) -> None:
    """Binary tensor container plus a JSON sidecar at ``path`` / ``path.json``.

    The container holds each parameter under its own name and the optimizer
    state as ``adam.step``, ``adam.m.<name>`` and ``adam.v.<name>``. Each
    file is written to a temporary name beside its target, then moved into
    place; a failed save leaves the previous pair and no temporary behind.
    The sidecar's ``optimizer`` object holds the settings of ``cfg`` that
    ``optimizer`` was built from, under the names :func:`load_checkpoint` reads.
    """
    arrays = {name: p.data for name, p in model.params.items()}
    arrays.update({"adam.m." + name: m for name, m in optimizer.m.items()})
    arrays.update({"adam.v." + name: v for name, v in optimizer.v.items()})
    arrays["adam.step"] = np.array([optimizer.step_count], dtype=np.int64)
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


def _check_shapes(found: dict[str, tuple], expected: dict[str, tuple]) -> None:
    """Raise ``ValueError`` naming the entries of ``expected`` that ``found`` lacks or reshapes."""
    bad = [name + (f" {found[name]} not {shape}" if name in found else " missing")
           for name, shape in sorted(expected.items()) if found.get(name) != shape]
    if bad:
        raise ValueError(f"{len(bad)} arrays unlike the model: {', '.join(bad[:5])}"
                         + (", ..." if len(bad) > 5 else ""))


def load_checkpoint(path, vocab: Vocabulary | None = None) -> tuple[Model, tuple[int, np.ndarray, np.ndarray], dict]:
    """The model, the saved optimizer state ``(step, m, v)`` and the sidecar of a pair.

    Each payload is read once, straight into the array it ends up in: the
    parameters into the model's arena ``model.params.flat``, ``adam.m.*``
    and ``adam.v.*`` into the two flat moment arenas ``m`` and ``v``, in
    ``params`` order, which ``Adam(params, cfg, state)`` takes as its
    moments. The sidecar sizes the three arenas, so before any name is
    listed or anything allocated, the container's byte size must hold them
    at 4 bytes a float, its smallest item: no arena is larger than the file.
    Every array is then checked for presence and shape before the model is
    built. No optimizer is built; the sidecar's ``optimizer`` settings are
    checked all the same.

    Any failure to read or rebuild the pair (a mistyped config value, an
    ``adam.step`` that is not one non-negative integer), a floating-point
    array holding a non-finite value, or a ``vocab`` whose hash or size is
    not the checkpoint's raises :class:`CheckpointError`.
    """
    try:
        with open(str(path) + ".json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        if not isinstance(sidecar, dict):
            raise ValueError("sidecar is not a JSON object")
        version = sidecar.get("format_version")
        if not json_fits(version, int) or version != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"checkpoint format_version {version!r} unsupported")
        epoch = sidecar["epoch"]
        if not json_fits(epoch, int) or epoch < 0:
            raise ValueError(f"epoch {epoch!r} is not a non-negative integer")
        model_sec = {**sidecar["model_config"]}
        # sidecars written while ModelConfig had this option name its one value
        pos_encoding = model_sec.pop("pos_encoding", "sinusoidal")
        if pos_encoding != "sinusoidal":
            raise ValueError(f"unknown positional encoding {pos_encoding!r}")
        model_cfg = build_config(ModelConfig, model_sec, "model_config")
        fusion = build_config(FusionConfig, {**sidecar["fusion"]}, "fusion")
        settings = {key: sidecar["optimizer"][key] for key in _OPTIMIZER_SETTINGS}
        build_config(TrainConfig, {"model": model_cfg, **settings}, "optimizer")
        with_ne = fusion.method == METHOD_NBEST
        count, size = param_count(model_cfg, with_ne, fusion.n), os.stat(path).st_size
        # arithmetic only: no name listed, nothing allocated. ModelConfig refuses every width
        # below 1, so every name holds at least one float and this bounds the names listed next
        if 3 * count * 4 > size:
            raise ValueError(f"model_config asks for 3 x {count} floats, more than the "
                             f"container's {size} bytes can hold")
        specs = param_specs(model_cfg, with_ne, fusion.n)
        arenas = [np.empty(count) for _ in range(3)]  # parameters, first and second moments
        into = {prefix + name: view for prefix, arena in zip(("", "adam.m.", "adam.v."), arenas)
                for name, view in tz.views(arena, specs).items()}
        arrays = load_tensors(path, into)
        for name, arr in arrays.items():
            if np.issubdtype(arr.dtype, np.floating) and not np.isfinite(arr).all():
                raise ValueError(f"array {name!r} holds a non-finite value")
        layout = {name: view.shape for name, view in into.items()}
        layout["adam.step"] = (1,)
        # an entry of its view's shape was read into the view; any other is refused here
        _check_shapes({name: arr.shape for name, arr in arrays.items()}, layout)
        step = arrays["adam.step"]
        if step.dtype.kind != "i" or step[0] < 0:
            raise ValueError(f"adam.step {step.tolist()} is not one non-negative integer")
        model = Model(model_cfg, fusion, seed=0, flat=arenas[0])
    except (OSError, ValueError, TypeError, KeyError, ArithmeticError) as err:
        raise CheckpointError(f"{path}: unreadable checkpoint: {err}") from err
    if vocab is not None and vocab.content_hash() != sidecar.get("vocab_hash"):
        raise CheckpointError(f"{path}: vocabulary does not match the checkpoint (pass the "
                              "training vocab with --vocab, or as data.vocab in a run config)")
    if vocab is not None and model_cfg.vocab_size != vocab.size:
        raise CheckpointError(f"{path}: checkpoint model has vocab_size {model_cfg.vocab_size}, "
                              f"the vocabulary has {vocab.size} tokens")
    return model, (int(step[0]), *arenas[1:]), sidecar


_SELECTION_PREFIXES = {
    "encoder": ("encoder.", "ctc_head."),
    "encoder_decoder": ("encoder.", "ctc_head.", "decoder.", "embed."),
}


def init_from_pretrained(
    model: Model, checkpoint_path, selection: str, vocab: Vocabulary | None = None
) -> Model:
    """Overwrite the selected parameter groups from a donor checkpoint.

    ``encoder`` covers the encoder stack and the CTC head;
    ``encoder_decoder`` additionally covers the decoder stack and the
    shared embedding table. Both select from the parameters of the model
    without the N-best memory, so memory parameters are never loaded.
    The donor is read by :func:`load_checkpoint`, checked against ``vocab``.
    """
    if selection not in _SELECTION_PREFIXES:
        raise ValueError(f"unknown selection {selection!r}")
    donor, _, _ = load_checkpoint(checkpoint_path, vocab)
    prefixes = _SELECTION_PREFIXES[selection]
    selected = {name: shape for name, shape in param_specs(model.config, False).items()
                if name.startswith(prefixes)}
    try:
        _check_shapes({name: p.shape for name, p in donor.params.items()}, selected)
    except ValueError as err:
        raise CheckpointError(f"{checkpoint_path}: donor checkpoint: {err}") from None
    for name in selected:  # in place: an optimizer over the model keeps its views
        model.params[name].data[...] = donor.params[name].data
    return model
