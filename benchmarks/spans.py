"""Per-layer spans and counters, recorded from outside the program.

:func:`install` replaces public ctcfuse functions, at the names their
callers look up, with wrappers that time each call as a span and count
what the call did. Nothing under ``src/`` changes; :meth:`Patches.restore`
puts every original back.
"""

from __future__ import annotations

import functools
import time

from stats import ratio

# span name -> the metric "<span>_s" reports its self time
SPANS = (
    "tensor.backward",
    "tensor.conv2d",
    "model.encode",
    "model.ctc_head",
    "model.embed_tokens",
    "model.decoder_forward",
    "model.ne_encode",
    "ctc.loss",
    "ctc.greedy",
    "ctc.prefix_beam",
    "alignment.aef_align",
    "alignment.edit_distance",
    "training.step",
    "training.build_decoder_input",
    "training.smoothed_ce",
    "training.adam",
    "decode.attention_beam",
    "decode.ctc_rescore",
    "decode.teacher_forced",
    "data.make_batches",
    "data.synth",
)
# spans whose call count is a metric "<span>_calls"
CALLED = (
    "model.decoder_forward",
    "ctc.loss",
    "ctc.greedy",
    "ctc.prefix_beam",
    "alignment.aef_align",
    "training.adam",
)
COUNTERS = (
    "model.decoder_positions",
    "ctc.prefix_beam_incomplete",
    "alignment.blanks_inserted",
    "training.pathway.fuse",
    "training.pathway.ctc_as_input",
    "training.pathway.ground_truth_only",
    "training.ctc_unreachable",
    "decode.steps",
    "decode.reached_eos",
    "decode.utterances",
    "decode.positions",
    "decode.scored_positions",
)


class Tracer:
    """Open-span stack plus per-name self time, call counts and counters.

    A span's self time is its duration minus the time its child spans
    cover; a child's whole duration is charged to its parent's children.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self._stack: list[list] = []  # open spans: [name, start, child seconds]
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}

    def enter(self, name: str) -> list:
        frame = [name, self.clock(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        duration = self.clock() - frame[1]
        if not self._stack or self._stack.pop() is not frame:
            raise RuntimeError(f"span {frame[0]} closed out of order")
        name = frame[0]
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[2]
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {f"{span}_s": self.self_s.get(span, 0.0) for span in SPANS}
        out.update({f"{span}_calls": self.calls.get(span, 0) for span in CALLED})
        out.update({name: self.counts.get(name, 0) for name in COUNTERS})
        out["decode.positions_per_scored"] = ratio(
            out["decode.positions"], out["decode.scored_positions"]
        )
        return out


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._saved.append((owner, attr, original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def spanned(tracer: Tracer, name: str, after=None):
    """Wrapper factory: time each call as span ``name``, then run ``after(result, *args)``."""

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    return make


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public functions of every ctcfuse layer the workloads run."""
    from ctcfuse import data, decode, model, tensor, training

    def on_decoder_forward(logits, _self, input_emb, *args, **kwargs):
        positions = input_emb.shape[0] * input_emb.shape[1]
        tracer.count("model.decoder_positions", positions)
        if tracer.inside("decode.attention_beam"):
            # each beam step uses the logits of the last position only
            tracer.count("decode.steps")
            tracer.count("decode.positions", positions)
            tracer.count("decode.scored_positions", input_emb.shape[0])
        elif tracer.inside("decode.teacher_forced"):
            tracer.count("decode.positions", positions)

    def on_teacher_forced(scores, _model, _enc, candidates, *args, **kwargs):
        tracer.count("decode.scored_positions", sum(len(c) + 1 for c in candidates))

    def on_attention_beam(result, *args, **kwargs):
        tracer.count("decode.utterances")
        tracer.count("decode.reached_eos", bool(result[2]))

    def on_prefix_beam(nbest, *args, **kwargs):
        tracer.count("ctc.prefix_beam_incomplete", bool(nbest.incomplete))

    def on_aef_align(pair, *args, **kwargs):
        tracer.count("alignment.blanks_inserted", pair.blanks_inserted)

    def on_step(stats, *args, **kwargs):
        for pathway, n in stats.pathway_counts.items():
            tracer.count(f"training.pathway.{pathway}", n)
        tracer.count("training.ctc_unreachable", stats.unreachable)

    sites = (
        (tensor.Tensor, "backward", "tensor.backward", None),
        (tensor, "conv2d", "tensor.conv2d", None),
        (model.Model, "encode", "model.encode", None),
        (model.Model, "ctc_head", "model.ctc_head", None),
        (model.Model, "embed_tokens", "model.embed_tokens", None),
        (model.Model, "decoder_forward", "model.decoder_forward", on_decoder_forward),
        (model.Model, "ne_encode", "model.ne_encode", None),
        (training, "ctc_loss_op", "ctc.loss", None),
        (training, "greedy_1best", "ctc.greedy", None),
        (training, "prefix_beam_nbest", "ctc.prefix_beam", on_prefix_beam),
        (decode, "prefix_beam_nbest", "ctc.prefix_beam", on_prefix_beam),
        (training, "aef_align", "alignment.aef_align", on_aef_align),
        # the decode module's name is the one evaluate() scores with;
        # aef_align's own edit-distance calls stay inside its span
        (decode, "edit_distance", "alignment.edit_distance", None),
        (training, "run_training_step", "training.step", on_step),
        (training, "build_decoder_input", "training.build_decoder_input", None),
        (training, "smoothed_cross_entropy", "training.smoothed_ce", None),
        (training.Adam, "step", "training.adam", None),
        (decode, "attention_beam_decode", "decode.attention_beam", on_attention_beam),
        (decode, "ctc_rescore_decode", "decode.ctc_rescore", None),
        (decode, "teacher_forced_scores", "decode.teacher_forced", on_teacher_forced),
        (training, "make_batches", "data.make_batches", None),
        (data, "synth_corpus", "data.synth", None),
    )
    for owner, attr, name, after in sites:
        patches.wrap(owner, attr, spanned(tracer, name, after))
