"""The benchmark's workloads: set-up, a measured closed loop, and output checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns, as in ``train_epoch`` and ``cmd_decode``.
An operation is one training step or one utterance decode. Inputs derive
from the workload seed only; the program receives the generated corpus.

A run is a series of identical passes. Each pass sets up afresh from the
seed and then runs the same ops in the same order, so the ops of every
pass must give bit-identical outputs. Each set-up and each timed part of
an op is followed by a sample of the machine's speed (see ``speed``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import multiprocessing
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ctcfuse import data, decode, training
from ctcfuse.model import METHOD_ALIGNED, METHOD_NBEST, Model

import speed

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"  # the cached decode model; ignored by git
# fewest passes in a run: an op's time and the set-up time are medians
# over at least this many
MIN_PASSES = 5

# recorded reference inputs, checked on every run whatever the workload seed
REF_SEED = 7
REF_TRAIN_UTTS = 64
REF_EPOCHS = 2
REF_UTTS = 16
# relative tolerance on recorded losses and scores: wide enough for a
# change of reduction order, far below any wrong-arithmetic change
REF_RTOL = 1e-6

# The decode model is trained on the first TRAIN_UTTS utterances of one
# fixed corpus. Held-out utterances come from later in the same generator
# stream: the synthetic features of a token are drawn from the corpus
# seed, so a corpus from another seed would be unreadable to the model.
MODEL_SEED = 7
POOL_UTTS = 1200
TRAIN_UTTS = 200
MODEL_EPOCHS = 12
# utterances decoded per seed, by transcript length; fixed so that every
# seed has the same length mix and p50 falls inside one length group
LENGTH_MIX = {3: 12, 4: 16, 5: 12, 6: 8}


@dataclass
class Outcome:
    """What one measured run of passes did."""

    passes: int = 0  # complete passes; replaying this many repeats the work
    latencies: list[list[tuple]] = field(default_factory=list)  # seconds, [pass][op][part]
    kernel_s: list[list[tuple]] = field(default_factory=list)  # speed sample after each latency
    outputs: list = field(default_factory=list)  # one comparable record per op, all passes
    setup_s: list[float] = field(default_factory=list)  # one per pass
    setup_kernel_s: list[float] = field(default_factory=list)  # speed sample after each set-up
    failed: int = 0  # ops that raised or whose output failed its check
    utterances: int = 0  # per pass
    elapsed_s: float = 0.0
    problems: list[str] = field(default_factory=list)  # failed run-level checks
    notes: dict = field(default_factory=dict)  # from the first pass


@dataclass
class Check:
    """Result of comparing outputs on the reference inputs with recorded values."""

    attempted: int
    failed: int
    problems: list[str]


def _close(a, b) -> bool:
    return math.isclose(a, b, rel_tol=REF_RTOL, abs_tol=REF_RTOL)


def _done(start: float, seconds: float | None, passes_done: int, passes: int | None) -> bool:
    if passes is not None:
        return passes_done >= passes
    return time.perf_counter() - start >= seconds and passes_done >= MIN_PASSES


class Workload:
    """Measured passes over one seed's inputs; subclasses set up and run one pass."""

    name: str
    parts: tuple  # names of the timed parts of one op
    expect: tuple  # spans that must fire
    bypass: tuple  # spans that must not

    def measure(self, seed: int, seconds: float | None = None,
                passes: int | None = None) -> Outcome:
        """Passes until ``seconds`` have passed (and MIN_PASSES), or exactly ``passes``."""
        out = Outcome()
        first = None
        start = time.perf_counter()
        while not _done(start, seconds, out.passes, passes):
            t0 = time.perf_counter()
            state = self.setup(seed)
            out.setup_s.append(time.perf_counter() - t0)
            out.setup_kernel_s.append(speed.sample())
            try:
                ops, notes = self.run_pass(state)
            except Exception as err:  # any raise is a failed op and ends the run
                out.failed += 1
                out.problems.append(f"pass {out.passes + 1} raised {type(err).__name__}: {err}")
                break
            records = [record for _, _, record, _ in ops]
            if first is None:
                first, out.notes = records, notes
                out.utterances = self.utterances(state)
            # a pass repeats the first one bit for bit, or its differing ops fail
            out.failed += sum(not ok or a != b for (_, _, a, ok), b in zip(ops, first))
            out.failed += abs(len(records) - len(first))
            out.outputs += records
            out.latencies.append([latency for latency, _, _, _ in ops])
            out.kernel_s.append([kernel_s for _, kernel_s, _, _ in ops])
            out.passes += 1
            del state  # before the next set-up, so peak memory holds one state
        out.elapsed_s = time.perf_counter() - start
        return out


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


@dataclass
class TrainState:
    vocab: data.Vocabulary
    corpus: list
    cfg: training.TrainConfig
    model: Model
    optimizer: training.Adam


class TrainWorkload(Workload):
    """``train_epoch`` on the desk corpus of the workload seed, for one fusion method.

    A pass is the first epoch from a freshly built model and optimizer.
    """

    parts = ("step",)

    def __init__(self, name: str, method: str, expect: tuple, bypass: tuple):
        self.name = name
        self.method = method
        self.expect = expect
        self.bypass = bypass

    def build(self) -> None:
        pass  # nothing to prepare beyond set-up

    def setup(self, seed: int, corpus_size: int | None = None) -> TrainState:
        vocab, corpus = data.synth_corpus(data.desk_synth_config(seed))
        corpus = corpus[:corpus_size]
        cfg = training.desk_train_config(vocab.size, self.method, seed=seed)
        model = Model(cfg.model, cfg.fusion, seed=cfg.seed)
        return TrainState(vocab, corpus, cfg, model, training.Adam(model.params, cfg))

    def utterances(self, state: TrainState) -> int:
        return len(state.corpus)

    def run_pass(self, state: TrainState) -> tuple[list, dict]:
        """One epoch; each step's latency, speed sample, comparable record and validity."""
        ops = []
        run_step = training.run_training_step
        lam = state.cfg.ctc_weight

        def timed_step(*args, **kwargs):
            t0 = time.perf_counter()
            s = run_step(*args, **kwargs)
            latency = time.perf_counter() - t0
            kernel_s = speed.sample()
            record = (s.joint, s.ctc, s.att, s.blanks_inserted,
                      tuple(sorted(s.pathway_counts.items())), s.unreachable, s.size, s.reachable)
            ok = (
                all(math.isfinite(v) for v in (s.joint, s.ctc, s.att))
                and s.att > 0.0 and s.ctc >= 0.0
                and math.isclose(s.joint, lam * s.ctc + (1.0 - lam) * s.att, rel_tol=1e-12)
                and sum(s.pathway_counts.values()) == s.size
                and s.reachable + s.unreachable == s.size
                and s.blanks_inserted >= 0
            )
            ops.append(((latency,), (kernel_s,), record, ok))
            return s

        training.run_training_step = timed_step
        try:
            epoch = training.train_epoch(
                state.corpus, state.vocab, state.model, state.optimizer, state.cfg, 1)
        finally:
            training.run_training_step = run_step
        return ops, {"joint_loss": epoch.joint_loss, "blanks_inserted": epoch.blanks_inserted,
                     "pathway_counts": epoch.pathway_counts}

    def reference_outputs(self) -> dict:
        ref = self.setup(REF_SEED, corpus_size=REF_TRAIN_UTTS)
        records = []
        for epoch in range(1, REF_EPOCHS + 1):
            m = training.train_epoch(ref.corpus, ref.vocab, ref.model, ref.optimizer, ref.cfg, epoch)
            records.append({
                "joint_loss": m.joint_loss,
                "ctc_loss": m.ctc_loss,
                "att_loss": m.att_loss,
                "blanks_inserted": m.blanks_inserted,
                "pathway_counts": m.pathway_counts,
                "ctc_unreachable": m.ctc_unreachable,
                "utterances": m.utterances,
            })
        return {"epochs": records}

    def check(self, expected: dict) -> Check:
        steps_per_epoch = -(-REF_TRAIN_UTTS // training.TrainConfig.batch_size)
        attempted = REF_EPOCHS * steps_per_epoch
        try:
            actual = self.reference_outputs()["epochs"]
        except Exception as err:  # any raise fails every reference step
            return Check(attempted, attempted, [f"reference training raised {type(err).__name__}: {err}"])
        problems = []
        failed = 0
        for epoch, (want, got) in enumerate(zip(expected["epochs"], actual), start=1):
            bad = [k for k in want if not (
                _close(want[k], got[k]) if isinstance(want[k], float) else want[k] == got[k]
            )]
            if bad:
                failed += steps_per_epoch
                problems.append(f"reference epoch {epoch} differs from the record in {bad}")
        return Check(attempted, failed, problems)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


@dataclass
class DecodeState:
    vocab: data.Vocabulary
    model: Model
    utts: list  # the seed's utterances, decoded in this order on every pass
    reference: list  # fixed utterances whose outputs are recorded


def program_sources() -> list[Path]:
    return sorted((ROOT / "src" / "ctcfuse").glob("*.py"))


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _model_corpus():
    return data.synth_corpus(dataclasses.replace(data.desk_synth_config(MODEL_SEED), count=POOL_UTTS))


def decode_model_path() -> Path:
    """Checkpoint of the decode model, trained once per program version and cached.

    Training it is the decode workload's build step, like compiling:
    set-up then loads the checkpoint, as ``ctcfuse decode`` does.
    """
    key = digest(program_sources() + [Path(__file__)])
    target = BUILD_DIR / f"decode-model-{key}"
    if not (target / "model.ckpt.json").is_file():
        tmp = BUILD_DIR / f"tmp-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        vocab, pool = _model_corpus()
        cfg = training.desk_train_config(vocab.size, METHOD_ALIGNED, seed=MODEL_SEED)
        model = Model(cfg.model, cfg.fusion, seed=cfg.seed)
        optimizer = training.Adam(model.params, cfg)
        for epoch in range(1, MODEL_EPOCHS + 1):
            training.train_epoch(pool[:TRAIN_UTTS], vocab, model, optimizer, cfg, epoch)
        training.save_checkpoint(tmp / "model.ckpt", model, optimizer, cfg, vocab, MODEL_EPOCHS)
        try:
            os.replace(tmp, target)
        except OSError:  # another run cached it first
            shutil.rmtree(tmp)
    return target / "model.ckpt"


def select_utterances(held_out: list, seed: int) -> list:
    """LENGTH_MIX utterances per transcript length, drawn and ordered by ``seed``."""
    rng = np.random.default_rng(seed)
    by_len: dict[int, list] = {}
    for utt in held_out:
        by_len.setdefault(len(utt.transcript), []).append(utt)
    picked = []
    for length, count in LENGTH_MIX.items():
        group = by_len[length]
        picked += [group[i] for i in rng.choice(len(group), size=count, replace=False)]
    return [picked[i] for i in rng.permutation(len(picked))]


class DecodeWorkload(Workload):
    """Three decoders over held-out utterances, with the cached plain-decoder model.

    A pass loads the model, then decodes the seed's utterances in a fixed
    order; an op is one utterance, decoded by each decoder in turn.
    """

    def __init__(self, name: str, decoders: dict, expect: tuple, bypass: tuple):
        self.name = name
        self.decoders = decoders  # part name -> DecodeConfig
        self.parts = tuple(decoders)
        self.expect = expect
        self.bypass = bypass

    def build(self) -> None:
        """Cache the model; a child process trains it, so its memory stays out of peak_rss_mb."""
        child = multiprocessing.get_context("fork").Process(target=decode_model_path)
        child.start()
        child.join()
        if child.exitcode != 0:
            raise RuntimeError(f"building the decode model failed with exit code {child.exitcode}")

    def setup(self, seed: int) -> DecodeState:
        model, _, _ = training.load_checkpoint(decode_model_path())
        vocab, pool = _model_corpus()
        held_out = pool[TRAIN_UTTS:]
        return DecodeState(vocab, model, select_utterances(held_out, seed), held_out[:REF_UTTS])

    def utterances(self, state: DecodeState) -> int:
        return len(state.utts)

    @staticmethod
    def _decode(state: DecodeState, utt, dcfg: decode.DecodeConfig) -> tuple:
        if dcfg.method == decode.METHOD_ATTENTION:
            tokens, score, reached = decode.attention_beam_decode(
                utt.features, state.model, dcfg, state.vocab
            )
            return tuple(int(t) for t in tokens), float(score), bool(reached)
        tokens, score = decode.ctc_rescore_decode(utt.features, state.model, dcfg, state.vocab)
        return tuple(int(t) for t in tokens), float(score), None

    @staticmethod
    def _valid(out, vocab: data.Vocabulary, dcfg: decode.DecodeConfig) -> bool:
        if not isinstance(out, tuple):  # the decode raised
            return False
        tokens, score, _ = out
        banned = {vocab.eos_id} if dcfg.method == decode.METHOD_ATTENTION else {
            vocab.eos_id, vocab.blank_id}
        return math.isfinite(score) and all(0 <= t < vocab.size and t not in banned for t in tokens)

    @staticmethod
    def _score(utts: list, hyps: dict) -> decode.EvalReport:
        """Corpus CER through the program's own ``evaluate``, outside the timed decodes."""
        return decode.evaluate(utts, lambda utt: hyps[utt.utt_id])

    def run_pass(self, state: DecodeState) -> tuple[list, dict]:
        """Per utterance: each decoder's latency and speed sample, the outputs and their validity."""
        ops = []
        hyps = {part: {} for part in self.parts}
        reached = dict.fromkeys(self.parts, 0)
        errors = []
        for utt in state.utts:
            latencies, kernel_s, results, ok = [], [], [], True
            for part, dcfg in self.decoders.items():
                t0 = time.perf_counter()
                try:
                    result = self._decode(state, utt, dcfg)
                except Exception as err:  # a failed op; the record names the error
                    result = f"{type(err).__name__}: {err}"
                    errors.append(f"{utt.utt_id} {part}: decode raised {result}")
                latencies.append(time.perf_counter() - t0)
                kernel_s.append(speed.sample())
                results.append(result)
                valid = self._valid(result, state.vocab, dcfg)
                ok = ok and valid
                hyps[part][utt.utt_id] = result[0] if valid else ()
                reached[part] += valid and bool(result[2])
            ops.append((tuple(latencies), tuple(kernel_s), (utt.utt_id, tuple(results)), ok))
        notes = {
            part: {"corpus_cer": self._score(state.utts, hyps[part]).corpus_cer,
                   "reached_eos": reached[part]}
            for part in self.parts
        }
        notes["errors"] = errors
        return ops, notes

    def reference_outputs(self) -> dict:
        state = self.setup(REF_SEED)
        recorded = {}
        for part, dcfg in self.decoders.items():
            outs = [self._decode(state, utt, dcfg) for utt in state.reference]
            report = self._score(state.reference,
                                 {u.utt_id: o[0] for u, o in zip(state.reference, outs)})
            recorded[part] = {
                "hypotheses": [[list(o[0]), o[1], o[2]] for o in outs],
                "corpus_cer": report.corpus_cer,
            }
        return recorded

    def check(self, expected: dict) -> Check:
        attempted = REF_UTTS * len(self.decoders)
        try:
            actual = self.reference_outputs()
        except Exception as err:  # any raise fails every reference decode
            return Check(attempted, attempted, [f"reference decode raised {type(err).__name__}: {err}"])
        failed = 0
        problems = []
        for part in self.parts:
            want, got = expected[part], actual[part]
            bad = sum(not (w[0] == g[0] and _close(w[1], g[1]) and w[2] == g[2])
                      for w, g in zip(want["hypotheses"], got["hypotheses"]))
            if bad:
                failed += bad
                problems.append(f"{part}: {bad} reference hypotheses differ from the record")
            if got["corpus_cer"] != want["corpus_cer"]:
                problems.append(
                    f"{part}: reference corpus CER {got['corpus_cer']} != recorded {want['corpus_cer']}"
                )
        return Check(attempted, failed, problems)


_TRAIN_SPANS = (
    "training.step", "training.build_decoder_input", "training.smoothed_ce", "training.adam",
    "tensor.backward", "tensor.conv2d", "model.encode", "model.ctc_head", "model.embed_tokens",
    "model.decoder_forward", "ctc.loss", "data.make_batches", "data.synth",
)
_DECODE_SPANS = (
    "model.encode", "model.embed_tokens", "model.decoder_forward", "tensor.conv2d",
    "alignment.edit_distance", "data.synth",
)

WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            "train_aligned", METHOD_ALIGNED,
            expect=_TRAIN_SPANS + ("ctc.greedy", "alignment.aef_align"),
            bypass=("ctc.prefix_beam", "model.ne_encode"),
        ),
        TrainWorkload(
            "train_nbest", METHOD_NBEST,
            expect=_TRAIN_SPANS + ("ctc.prefix_beam", "model.ne_encode"),
            bypass=("alignment.aef_align", "ctc.greedy"),
        ),
        DecodeWorkload(
            "decode",
            {
                # attention beam 1 is the train-CER path
                "greedy": decode.DecodeConfig(method=decode.METHOD_ATTENTION, beam=1),
                "beam10": decode.DecodeConfig(method=decode.METHOD_ATTENTION, beam=10),
                "rescore": decode.DecodeConfig(method=decode.METHOD_RESCORE, beam=10),
            },
            expect=_DECODE_SPANS + ("decode.attention_beam", "decode.ctc_rescore",
                                    "decode.teacher_forced", "ctc.prefix_beam", "model.ctc_head"),
            bypass=("training.step", "training.adam", "tensor.backward", "ctc.loss"),
        ),
    )
}
