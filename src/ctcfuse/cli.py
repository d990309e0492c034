"""Command-line surface: train, decode, eval, align, synth, stats, sweep, report.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Failures print one machine-parsable line to stderr:
``error kind=<usage|data|numeric> msg="..."``, the message JSON-encoded.

Environment: ``CTCFUSE_THREADS`` sizes the numeric thread pools, 1 when
unset (pinned by ``import ctcfuse``, before numpy loads; a pool variable
already set wins).

The decode and synth flags are the fields of ``DecodeConfig`` and
``SynthConfig``; their defaults are ``DecodeConfig()`` and
``desk_synth_config()``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import os
import sys
import types
import typing

import numpy as np

from ctcfuse.alignment import GatingConfig, aef_align, render_alignment
from ctcfuse.ctc import format_nbest
from ctcfuse.data import (DataError, SynthConfig, UsageError, build_config, build_vocab,
                          corpus_stats, desk_synth_config, json_fits, load_corpus, read_manifest,
                          read_text, save_corpus, synth_corpus)
from ctcfuse.decode import (DECODE_METHODS, DecodeConfig, decode_utterance, evaluate,
                            format_hypothesis)
from ctcfuse.model import METHOD_NBEST, FusionConfig, ModelConfig, param_count
from ctcfuse.training import (METRICS_FILE, EpochMetrics, NumericError, TrainConfig,
                              load_checkpoint, train)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); map to our code 1
        raise UsageError(message)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _load_json(path) -> dict:
    if not os.path.exists(path):
        raise DataError(f"config file not found: {path}")
    with open(path, "rb") as fh:
        try:
            payload = json.loads(fh.read())
        except ValueError as err:  # not JSON, or not UTF-8
            raise UsageError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise UsageError(f"{path}: a run config must be a JSON object")
    return payload


def _section(payload: dict, key: str, where: str) -> dict:
    """A copy of the JSON-object section ``payload[key]``; absent or null is empty."""
    section = payload.get(key)
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise UsageError(f"{where} must be a JSON object")
    return dict(section)


_TOP_LEVEL_KEYS = {"data", "model", "fusion", "gating", "train"}


def resolve_run_config(payload: dict, seed_override: int | None = None, points=({},)):
    """Validate a JSON run config exhaustively and materialize all defaults.

    Returns ``(vocab, corpus, input_content_hash, runs)``, one
    ``(train_config, resolved_dict)`` in ``runs`` per sweep grid point (the
    empty point is the config as given), all built and checked against the
    corpus before it returns. The hash is :func:`data.load_corpus`'s for a
    manifest and the SHA-256 of the resolved settings for a synthetic corpus.
    """
    unknown = sorted(set(payload) - _TOP_LEVEL_KEYS)
    if unknown:
        raise UsageError(f"unknown top-level config keys: {', '.join(unknown)}")
    data_sec = _section(payload, "data", "data")
    unknown = sorted(set(data_sec) - {"manifest", "vocab", "synth"})
    if unknown:
        raise UsageError(f"unknown keys in data: {', '.join(unknown)}")
    if ("manifest" in data_sec) == ("synth" in data_sec):
        raise UsageError("data section needs exactly one of 'manifest' or 'synth'")
    # a number here would be opened as a file descriptor
    if not (json_fits(data_sec.get("manifest", ""), str)
            and json_fits(data_sec.get("vocab"), str | None)):
        raise UsageError("data.manifest and data.vocab must be path strings")

    if "synth" in data_sec:
        synth_sec = _section(data_sec, "synth", "data.synth")
        synth_cfg = build_config(SynthConfig, synth_sec, "data.synth")
        vocab, corpus = synth_corpus(synth_cfg)
        data_resolved = {"synth": dataclasses.asdict(synth_cfg)}
        input_hash = hashlib.sha256(
            json.dumps(data_resolved["synth"], sort_keys=True).encode()
        ).hexdigest()
    else:
        manifest = data_sec["manifest"]
        vocab, corpus, input_hash = load_corpus(manifest, data_sec.get("vocab"))
        data_resolved = {"manifest": manifest, "vocab": data_sec.get("vocab")}

    model_sec = _section(payload, "model", "model")
    model_sec.setdefault("vocab_size", vocab.size)
    model_sec.setdefault("feature_dim", corpus[0].features.shape[1])
    if model_sec["vocab_size"] != vocab.size:
        raise UsageError(
            f"model.vocab_size {model_sec['vocab_size']} does not match the vocabulary ({vocab.size})"
        )
    model_cfg = build_config(ModelConfig, model_sec, "model")
    _check_corpus_fits(corpus, model_cfg)

    runs = []
    for point in points:
        try:
            run = _apply_grid_point(payload, point)
            fusion_cfg = build_config(FusionConfig, run["fusion"], "fusion")
            _check_model_size(model_cfg, fusion_cfg)
            gating_cfg = build_config(GatingConfig, run["gating"], "gating")
            train_sec = run["train"]
            if seed_override is not None:
                train_sec["seed"] = seed_override
            # a section nested in train overrides its built config and fails the type rule
            train_cfg = build_config(
                TrainConfig,
                {"model": model_cfg, "fusion": fusion_cfg, "gating": gating_cfg, **train_sec},
                "train",
            )
        except UsageError as err:
            if not point:
                raise
            name = " ".join(f"{key}={value}" for key, value in point.items())
            raise UsageError(f"grid point {name}: {err}") from None
        train_dict = dataclasses.asdict(train_cfg)
        nested = {key: train_dict.pop(key) for key in ("model", "fusion", "gating")}
        runs.append((train_cfg, {"data": data_resolved, **nested, "train": train_dict}))
    return vocab, corpus, input_hash, runs


# floats: a run config whose model would hold more is a usage error, refused
# before anything of that size is allocated (the desk model holds 313,128)
MAX_PARAMETERS = 10**8


def _check_model_size(model_cfg: ModelConfig, fusion_cfg: FusionConfig) -> None:
    """Refuse a model above ``MAX_PARAMETERS`` floats, naming the ``model.*`` or
    ``fusion.*`` key whose default would shrink it most."""
    sizes = {f"model.{f.name}": (getattr(model_cfg, f.name), f.default)
             for f in dataclasses.fields(ModelConfig)}
    memory = fusion_cfg.method == METHOD_NBEST
    if memory:
        sizes["fusion.n"] = (fusion_cfg.n, FusionConfig.n)

    def count(reset: str | None = None) -> int:
        given = {key: default if key == reset else value for key, (value, default) in sizes.items()}
        model = types.SimpleNamespace(**{key[len("model."):]: value for key, value in given.items()
                                         if key.startswith("model.")})
        return param_count(model, memory, given.get("fusion.n", 1))

    total = count()
    if total > MAX_PARAMETERS:
        key = min(sizes, key=count)
        raise UsageError(f"{key} = {sizes[key][0]}: the model would hold {total:,} parameters, "
                         f"more than {MAX_PARAMETERS:,}")


def _check_corpus_fits(corpus, model_cfg: ModelConfig) -> None:
    """Every utterance has the model's feature width and at least ``subsample_factor`` frames."""
    width, need = model_cfg.feature_dim, model_cfg.subsample_factor
    for utt in corpus:
        if utt.features.shape[1] != width:
            raise DataError(
                f"utterance {utt.utt_id}: features are {utt.features.shape[1]} wide, "
                f"the model takes {width}"
            )
        if utt.num_frames < need:
            raise DataError(
                f"utterance {utt.utt_id}: {utt.num_frames} frames, the model needs at least {need}"
            )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _run_meta(cfg: TrainConfig, input_hash: str, vocab) -> dict:
    return {"seed": cfg.seed, "input_content_hash": input_hash, "vocab_hash": vocab.content_hash()}


def cmd_train(args) -> int:
    payload = _load_json(args.config)
    vocab, corpus, input_hash, [(cfg, resolved)] = resolve_run_config(payload, args.seed)
    result = train(corpus, vocab, cfg, out_dir=args.out, log=None if args.quiet else print,
                   resolved_config=resolved, run_meta=_run_meta(cfg, input_hash, vocab))
    final = result.history[-1]
    print(f"done epochs={final.epoch} joint={final.joint_loss:.4f} train_cer={final.train_cer:.4f}")
    return 0


def _load_model_and_vocab(args):
    """Corpus, then the checkpoint checked against its vocabulary; the corpus fits the model."""
    vocab, corpus, _ = load_corpus(args.manifest, args.vocab)
    model, _, _ = load_checkpoint(args.ckpt, vocab)
    _check_corpus_fits(corpus, model.config)
    return model, vocab, corpus


def _decode_config(args) -> DecodeConfig:
    """The decode flags as a ``DecodeConfig``; bad values are usage errors."""
    return build_config(DecodeConfig, _field_values(DecodeConfig, args), "decode flags")


def cmd_decode(args) -> int:
    cfg = _decode_config(args)
    if args.nbest < 0:
        raise UsageError("--nbest must be >= 0")
    model, vocab, corpus = _load_model_and_vocab(args)
    lines = []
    nbest_lines = []
    for utt in corpus:
        hyp, score, nb = decode_utterance(utt, model, cfg, vocab, args.nbest)
        lines.append(format_hypothesis(utt.utt_id, hyp, score, vocab))
        if nb is not None:
            nbest_lines.append(format_nbest(utt.utt_id, nb, vocab.id_to_token))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    if args.nbest:
        nbest_path = (args.out or "nbest.tsv") + (".nbest.tsv" if args.out else "")
        with open(nbest_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(nbest_lines) + "\n")
    return 0


def _read_hypothesis_file(path, vocab):
    hyps, seen = {}, {}
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{line_no}: expected utt_id<TAB>score<TAB>tokens")
        utt_id, _, tokens = parts
        if seen.setdefault(utt_id, line_no) != line_no:
            raise DataError(f"{path}:{line_no}: id {utt_id!r} repeats line {seen[utt_id]}")
        hyps[utt_id] = tuple(
            vocab.token_to_id.get(tok, vocab.unk_id) for tok in tokens.split() if tok
        )
    return hyps


def cmd_eval(args) -> int:
    if (args.ckpt is None) == (args.hyp is None):
        raise UsageError("eval needs exactly one of --ckpt or --hyp")
    if args.hyp is not None:
        vocab, corpus, _ = load_corpus(args.manifest, args.vocab)
        hyps = _read_hypothesis_file(args.hyp, vocab)
        missing = [u.utt_id for u in corpus if u.utt_id not in hyps]
        if missing:
            raise DataError(f"hypothesis file missing utterances: {missing[:5]}")
        decode_fn = lambda utt: hyps[utt.utt_id]
    else:
        cfg = _decode_config(args)
        model, vocab, corpus = _load_model_and_vocab(args)
        decode_fn = lambda utt: decode_utterance(utt, model, cfg, vocab)[0]

    report = evaluate(corpus, decode_fn)
    print(report.render_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_jsonl() + "\n")
    return 0


def cmd_align(args) -> int:
    for path in (args.ref, args.hyp):
        if not os.path.exists(path):
            raise DataError(f"file not found: {path}")
    refs = read_text(args.ref).splitlines()
    hyps = read_text(args.hyp).splitlines()
    if len(refs) != len(hyps):
        raise DataError(f"line count mismatch: {len(refs)} refs vs {len(hyps)} hyps")
    vocab = build_vocab([line for line in refs + hyps if line.strip()])
    blocks = []
    for i, (ref, hyp) in enumerate(zip(refs, hyps), start=1):
        pair = aef_align(vocab.tokenize(ref), vocab.tokenize(hyp), vocab.blank_id)
        blocks.append(f"# line {i}\n" + render_alignment(pair, vocab.id_to_token))
    print("\n\n".join(blocks))
    return 0


def cmd_synth(args) -> int:
    vocab, corpus = synth_corpus(SynthConfig(**_field_values(SynthConfig, args)))
    manifest = save_corpus(args.out, corpus, vocab)
    print(f"wrote {len(corpus)} utterances to {manifest}")
    return 0


def cmd_stats(args) -> int:
    if (args.manifest is None) == (args.text is None):
        raise UsageError("stats needs exactly one of --manifest or --text")
    if args.manifest is not None:
        texts = [transcript for *_, transcript in read_manifest(args.manifest)[1]]
    else:
        if not os.path.exists(args.text):
            raise DataError(f"text file not found: {args.text}")
        texts = [line for line in read_text(args.text).splitlines() if line.strip()]
    lengths = [len([ch for ch in t if not ch.isspace()]) for t in texts]
    stats = corpus_stats(lengths)
    print(stats.render_table())
    print(stats.render_kv())
    return 0


def _beam_width(fusion: dict, n: int) -> int:
    """A grid point's beam width: the base config's, else the default widened to ``n``."""
    return fusion.get("beam_width", max(n, FusionConfig.beam_width))


def _pretrain_path(train: dict, selection: str | None) -> str | None:
    """A grid point's donor: the base config's for a selection, none for ``pretrain=none``."""
    if selection is None:
        return None
    if not train.get("pretrain_path"):
        raise UsageError("grid over pretrain needs train.pretrain_path in the base config")
    return train["pretrain_path"]


# grid key -> (config section, field, the settings its value implies); an implied
# setting that is callable computes it from the section and the value
_GRID_KEYS = {
    "method": ("fusion", "method", {}),
    "t_l": ("gating", "t_l", {"mode": "absolute"}),
    "t_r": ("gating", "t_r", {"mode": "relative"}),
    "alpha": ("fusion", "alpha", {}),
    "n": ("fusion", "n", {"beam_width": _beam_width}),
    "pretrain": ("train", "pretrain_selection", {"pretrain_path": _pretrain_path}),
}
_GRID_SECTIONS = {"fusion": FusionConfig, "gating": GatingConfig, "train": TrainConfig}


def _read_grid_value(key: str, raw: str):
    """``raw`` read as the type of the field ``key`` sets; a non-number raises ``ValueError``."""
    section, name, _ = _GRID_KEYS[key]
    hint = typing.get_type_hints(_GRID_SECTIONS[section])[name]
    if isinstance(hint, type):
        return hint(raw)
    return None if raw == "none" else raw  # an optional string, such as pretrain=none


def _parse_grid(items: list[str]) -> dict[str, list[str]]:
    """``key=v1,v2`` items as key -> values; two spellings of one number are a repeat."""
    grid: dict[str, list[str]] = {}
    for item in items:
        if "=" not in item:
            raise UsageError(f"grid item {item!r} must look like key=v1,v2")
        key, _, values = item.partition("=")
        if key not in _GRID_KEYS:
            raise UsageError(f"unknown grid key {key!r}; allowed: {', '.join(_GRID_KEYS)}")
        if key in grid:
            raise UsageError(f"grid key {key!r} given twice")
        grid[key] = values.split(",")
        try:
            read = [_read_grid_value(key, value) for value in grid[key]]
        except ValueError as err:
            raise UsageError(f"grid key {key!r}: {err}") from None
        if len(set(read)) < len(read):
            raise UsageError(f"grid key {key!r} repeats a value in {values!r}")
    if not grid:
        raise UsageError("sweep needs at least one --grid key=v1,v2")
    return grid


def _apply_grid_point(payload: dict, point: dict[str, str]) -> dict:
    """A deep copy of ``payload`` holding one grid point; a non-number raises ``ValueError``."""
    out = json.loads(json.dumps(payload))  # deep copy
    for key in _GRID_SECTIONS:
        out[key] = _section(out, key, key)
    for key, raw in point.items():
        section, name, implied = _GRID_KEYS[key]
        value = _read_grid_value(key, raw)
        for field, setting in implied.items():
            out[section][field] = setting(out[section], value) if callable(setting) else setting
        out[section][name] = value
    return out


def cmd_sweep(args) -> int:
    payload = _load_json(args.config)
    grid = _parse_grid(args.grid)
    keys = sorted(grid)
    points = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    # every grid point is checked before the first run starts or --out is made
    vocab, corpus, input_hash, runs = resolve_run_config(payload, args.seed, points)
    os.makedirs(args.out, exist_ok=True)

    rows = []
    for point, (cfg, resolved) in zip(points, runs):
        name = "run_" + "_".join(f"{k}={v}" for k, v in sorted(point.items()))
        result = train(corpus, vocab, cfg, out_dir=os.path.join(args.out, name),
                       resolved_config=resolved, run_meta=_run_meta(cfg, input_hash, vocab))
        final = result.history[-1]  # always measured
        rows.append({"run": name, **point, "epochs": final.epoch,
                     "joint_loss": round(final.joint_loss, 6),
                     "train_cer": round(final.train_cer, 6)})
        if not args.quiet:
            print(f"{name}: joint={final.joint_loss:.4f} cer={final.train_cer}")

    header = ["run", *keys, "epochs", "joint_loss", "train_cer"]
    table_path = os.path.join(args.out, "comparison.tsv")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(str(row.get(col, "")) for col in header) + "\n")
    print(f"wrote {len(rows)} runs to {args.out} (table: {table_path})")
    return 0


# the fields ``report`` reads from a metrics record, each of the type ``EpochMetrics`` gives it
_REPORT_FIELDS = ("epoch", "joint_loss", "ctc_loss", "att_loss", "blanks_inserted", "train_cer")


def cmd_report(args) -> int:
    metrics_path = args.metrics or (os.path.join(args.run, METRICS_FILE) if args.run else None)
    if not metrics_path:
        raise UsageError("report needs --run or --metrics")
    if not os.path.exists(metrics_path):
        raise DataError(f"metrics file not found: {metrics_path}")
    metric_types = typing.get_type_hints(EpochMetrics)
    records = []
    for line_no, line in enumerate(read_text(metrics_path).split("\n"), start=1):
        if not line.strip():
            continue
        where = f"{metrics_path}:{line_no}"
        try:
            rec = json.loads(line)
        except ValueError as err:
            raise DataError(f"{where}: not a JSON record: {err}") from None
        if not isinstance(rec, dict):
            raise DataError(f"{where}: not a JSON object")
        rec.setdefault("train_cer", None)  # the one field a record may leave out
        bad = [key for key in _REPORT_FIELDS if key not in rec
               or not json_fits(rec[key], metric_types[key])]
        if bad:
            raise DataError(f"{where}: missing or mistyped {', '.join(bad)}")
        records.append(rec)
    if not records:
        raise DataError(f"{metrics_path}: no records")

    header = f"{'epoch':>5} {'joint':>9} {'ctc':>9} {'att':>9} {'blanks':>7} {'cer':>7}"
    lines = [header]
    for rec in records:
        ctc, cer = rec["ctc_loss"], rec["train_cer"]
        lines.append(
            f"{rec['epoch']:5d} {rec['joint_loss']:9.4f} "
            f"{'-' if ctc is None else format(ctc, '.4f'):>9} "
            f"{rec['att_loss']:9.4f} {rec['blanks_inserted']:7d} "
            f"{'-' if cer is None else format(cer, '.4f'):>7}"
        )
    print("\n".join(lines))

    out_dir = args.out or os.path.dirname(metrics_path) or "."
    os.makedirs(out_dir, exist_ok=True)
    loss_csv = os.path.join(out_dir, "loss.csv")
    with open(loss_csv, "w", encoding="utf-8") as fh:
        fh.write("x,series,value\n")
        for rec in records:
            for series in ("joint_loss", "ctc_loss", "att_loss"):
                if rec[series] is not None:
                    fh.write(f"{rec['epoch']},{series},{rec[series]}\n")
    blanks_csv = os.path.join(out_dir, "blanks.csv")
    with open(blanks_csv, "w", encoding="utf-8") as fh:
        fh.write("x,series,value\n")
        for rec in records:
            fh.write(f"{rec['epoch']},blanks_inserted,{rec['blanks_inserted']}\n")
    print(f"plot data: {loss_csv}, {blanks_csv}")
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_field_flags(p, default, **choices) -> None:
    """One flag per field of the config ``default``, defaulting to that field's value.

    A field ``min_frames_per_token`` is the flag ``--min-frames``.
    """
    types = typing.get_type_hints(type(default))
    for f in dataclasses.fields(default):
        name = f.name.removesuffix("_per_token")
        p.add_argument("--" + name.replace("_", "-"), type=types[f.name], dest=f.name,
                       default=getattr(default, f.name), choices=choices.get(f.name),
                       metavar=None if f.name in choices else name.upper())


def _field_values(cls, args) -> dict:
    """The parsed values of the flags :func:`_add_field_flags` registered for ``cls``."""
    return {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)}


def _build_parser() -> _Parser:
    parser = _Parser(prog="ctcfuse", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a JSON run config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="run directory")
    p.add_argument("--seed", type=int, default=None, help="override train.seed")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("decode", help="decode a manifest with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", default=None)
    _add_field_flags(p, DecodeConfig(), method=DECODE_METHODS)
    p.add_argument("--nbest", type=int, default=0,
                   help="also write CTC N-best lists to OUT.nbest.tsv, without --out to "
                        "./nbest.tsv (an existing file is overwritten)")
    p.add_argument("--out", default=None, help="hypothesis file (default: stdout)")
    p.set_defaults(handler=cmd_decode)

    p = sub.add_parser("eval", help="CER report from a checkpoint or hypothesis file")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--hyp", default=None)
    p.add_argument("--manifest", required=True)
    p.add_argument("--vocab", default=None)
    _add_field_flags(p, DecodeConfig(), method=DECODE_METHODS)
    p.add_argument("--out", default=None, help="JSON-lines report path")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("align", help="edit-distance alignment of two text files")
    p.add_argument("ref")
    p.add_argument("hyp")
    p.set_defaults(handler=cmd_align)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True, help="corpus directory")
    _add_field_flags(p, desk_synth_config())
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("stats", help="transcript length distribution")
    p.add_argument("--manifest", default=None)
    p.add_argument("--text", default=None)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("sweep", help="grid of training runs plus a comparison table")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", nargs="+", action="extend", required=True, metavar="key=v1,v2")
    p.add_argument("--out", required=True, help="sweep directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("report", help="render metrics JSON-lines to tables and plot data")
    p.add_argument("--run", default=None)
    p.add_argument("--metrics", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_report)

    return parser


def _print_error(kind: str, err: Exception | str) -> None:
    # JSON-encoding keeps quotes and newlines in the message parsable
    msg = json.dumps(str(err), ensure_ascii=False)
    print(f"error kind={kind} msg={msg}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # a non-finite op result raises, from the op's own scan or, inside
        # tz.fp_guard, from numpy's flags, and becomes one error line; numpy's
        # warnings outside a guard would add lines before it
        with np.errstate(all="ignore"):
            return args.handler(args)
    except UsageError as err:
        _print_error("usage", err)
        return 1
    except (OSError, DataError) as err:  # OSError: an unreadable input, an unwritable output
        _print_error("data", err)
        return 2
    except NumericError as err:
        _print_error("numeric", err)
        return 3
    except MemoryError as err:  # a size that cannot fit, at set-up or as a search grows
        _print_error("memory", str(err) or "an allocation failed and named no size")
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
