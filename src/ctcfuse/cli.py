"""Command-line surface: train, decode, eval, align, synth, stats, sweep, report.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Failures print one machine-parsable line to stderr:
``error kind=<usage|data|numeric> msg="..."``, the message JSON-encoded.

Environment overrides: ``CTCFUSE_OUTDIR`` replaces the output directory,
``CTCFUSE_THREADS`` sizes the numeric thread pools, 1 when unset (pinned
by ``import ctcfuse``, before numpy loads; a pool variable already set wins).

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
import typing

import numpy as np

from ctcfuse.alignment import GatingConfig, aef_align, render_alignment
from ctcfuse.ctc import format_nbest
from ctcfuse.data import (DataError, SynthConfig, build_vocab, corpus_stats, desk_synth_config,
                          load_manifest, load_vocab_file, read_manifest, read_text, save_corpus,
                          synth_corpus)
from ctcfuse.decode import (DECODE_METHODS, DecodeConfig, ctc_nbest, decode_utterance, evaluate,
                            format_hypothesis)
from ctcfuse.model import METHODS, FusionConfig, ModelConfig
from ctcfuse.training import METRICS_FILE, NumericError, TrainConfig, load_checkpoint, train


class UsageError(Exception):
    """Bad flags, malformed configs, unknown keys."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); map to our code 1
        raise UsageError(message)


def _outdir(args) -> str | None:
    return os.environ.get("CTCFUSE_OUTDIR") or getattr(args, "out", None)


# ---------------------------------------------------------------------------
# config handling
# ---------------------------------------------------------------------------


def _build_dataclass(cls, payload: dict, where: str):
    types = typing.get_type_hints(cls)
    unknown = sorted(set(payload) - set(types))
    if unknown:
        raise UsageError(f"unknown keys in {where}: {', '.join(unknown)}")
    for key, value in payload.items():
        kinds = typing.get_args(types[key]) or (types[key],)
        if float in kinds:
            kinds += (int,)  # an integer fills a float field
        if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
            kind = getattr(types[key], "__name__", str(types[key]))
            raise UsageError(f"invalid {where}: {key} must be {kind}, not {value!r}")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as err:
        raise UsageError(f"invalid {where}: {err}") from err


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
_NESTED_TRAIN_KEYS = {"model", "fusion", "gating"}


def resolve_run_config(payload: dict, seed_override: int | None = None):
    """Validate a JSON run config exhaustively and materialize all defaults.

    Returns ``(vocab, corpus, train_config, resolved_dict)``.
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
    if not isinstance(data_sec.get("manifest", ""), str) or not isinstance(
        data_sec.get("vocab"), (str, type(None))
    ):
        raise UsageError("data.manifest and data.vocab must be path strings")

    if "synth" in data_sec:
        synth_sec = _section(data_sec, "synth", "data.synth")
        synth_cfg = _build_dataclass(SynthConfig, synth_sec, "data.synth")
        vocab, corpus = synth_corpus(synth_cfg)
        data_resolved = {"synth": dataclasses.asdict(synth_cfg)}
    else:
        manifest = data_sec["manifest"]
        vocab = _vocab_for(manifest, data_sec.get("vocab"))
        corpus = load_manifest(manifest, vocab)
        data_resolved = {"manifest": manifest, "vocab": data_sec.get("vocab")}

    model_sec = _section(payload, "model", "model")
    model_sec.setdefault("vocab_size", vocab.size)
    model_sec.setdefault("feature_dim", corpus[0].features.shape[1])
    model_sec.setdefault("dropout", 0.0)
    if model_sec["vocab_size"] != vocab.size:
        raise UsageError(
            f"model.vocab_size {model_sec['vocab_size']} does not match the vocabulary ({vocab.size})"
        )
    model_cfg = _build_dataclass(ModelConfig, model_sec, "model")
    if model_cfg.feature_dim != corpus[0].features.shape[1]:
        raise UsageError("model.feature_dim does not match the corpus features")

    fusion_cfg = _build_dataclass(FusionConfig, _section(payload, "fusion", "fusion"), "fusion")
    gating_cfg = _build_dataclass(GatingConfig, _section(payload, "gating", "gating"), "gating")

    train_sec = _section(payload, "train", "train")
    reserved = sorted(set(train_sec) & _NESTED_TRAIN_KEYS)
    if reserved:
        raise UsageError(f"train section must not nest: {', '.join(reserved)}")
    if seed_override is not None:
        train_sec["seed"] = seed_override
    train_cfg = _build_dataclass(
        TrainConfig,
        {**train_sec, "model": model_cfg, "fusion": fusion_cfg, "gating": gating_cfg},
        "train",
    )

    resolved = {
        "data": data_resolved,
        "model": dataclasses.asdict(model_cfg),
        "fusion": dataclasses.asdict(fusion_cfg),
        "gating": dataclasses.asdict(gating_cfg),
        "train": {
            k: v
            for k, v in dataclasses.asdict(train_cfg).items()
            if k not in _NESTED_TRAIN_KEYS
        },
    }
    return vocab, corpus, train_cfg, resolved


def _vocab_for(manifest, vocab_path):
    """The vocab file if one is given, else the vocabulary of the manifest's transcripts."""
    if vocab_path:
        return load_vocab_file(vocab_path)
    return build_vocab(transcript for *_, transcript in read_manifest(manifest))


def _input_content_hash(data_resolved: dict) -> str:
    digest = hashlib.sha256()
    if "synth" in data_resolved:
        digest.update(json.dumps(data_resolved["synth"], sort_keys=True).encode())
        return digest.hexdigest()
    manifest = data_resolved["manifest"]
    with open(manifest, "rb") as fh:
        digest.update(fh.read())
    for _, feat_path, _, _ in read_manifest(manifest):
        with open(feat_path, "rb") as ffh:
            digest.update(ffh.read())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _train_run(payload: dict, seed: int | None, out_dir: str | None, echo: bool):
    """Resolve a run config and train it into ``out_dir`` (see :func:`training.train`).

    Each epoch's log line also goes to stdout if ``echo``.
    """
    vocab, corpus, cfg, resolved = resolve_run_config(payload, seed_override=seed)
    meta = None
    if out_dir:
        meta = {
            "seed": cfg.seed,
            "input_content_hash": _input_content_hash(resolved["data"]),
            "vocab_hash": vocab.content_hash(),
        }
    return train(corpus, vocab, cfg, out_dir=out_dir, log=print if echo else None,
                 resolved_config=resolved, run_meta=meta)


def cmd_train(args) -> int:
    result = _train_run(_load_json(args.config), args.seed, _outdir(args), echo=not args.quiet)
    final = result.history[-1]
    print(
        f"done epochs={final.epoch} joint={final.joint_loss:.4f} "
        f"train_cer={'-' if result.final_train_cer is None else f'{result.final_train_cer:.4f}'}"
    )
    return 0


def _load_model_and_vocab(args):
    """Checkpoint, vocabulary and corpus for decoding; every utterance is long enough."""
    model, _, sidecar = load_checkpoint(args.ckpt)
    vocab = _vocab_for(args.manifest, args.vocab)
    if vocab.content_hash() != sidecar.get("vocab_hash"):
        raise DataError(
            "vocabulary does not match the checkpoint (pass the training vocab with --vocab)"
        )
    corpus = load_manifest(args.manifest, vocab)
    need = model.config.subsample_factor
    for utt in corpus:
        if utt.num_frames < need:
            raise DataError(
                f"utterance {utt.utt_id}: {utt.num_frames} frames, the model needs at least {need}"
            )
    return model, vocab, corpus


def _decode_config(args) -> DecodeConfig:
    """The decode flags as a ``DecodeConfig``; bad values are usage errors."""
    return _build_dataclass(DecodeConfig, _field_values(DecodeConfig, args), "decode flags")


def cmd_decode(args) -> int:
    cfg = _decode_config(args)
    if args.nbest < 0:
        raise UsageError("--nbest must be >= 0")
    model, vocab, corpus = _load_model_and_vocab(args)
    lines = []
    nbest_lines = []
    for utt in corpus:
        hyp, score = decode_utterance(utt, model, cfg, vocab)
        lines.append(format_hypothesis(utt.utt_id, hyp, score, vocab))
        if args.nbest:
            nb = ctc_nbest(utt, model, vocab, max(args.beam, args.nbest), args.nbest)
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
    hyps = {}
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{line_no}: expected utt_id<TAB>score<TAB>tokens")
        utt_id, _, tokens = parts
        ids = tuple(
            vocab.token_to_id.get(tok, vocab.unk_id) for tok in tokens.split() if tok
        )
        hyps[utt_id] = ids
    return hyps


def cmd_eval(args) -> int:
    if (args.ckpt is None) == (args.hyp is None):
        raise UsageError("eval needs exactly one of --ckpt or --hyp")
    if args.hyp is not None:
        vocab = _vocab_for(args.manifest, args.vocab)
        corpus = load_manifest(args.manifest, vocab)
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
    out_dir = _outdir(args)
    if not out_dir:
        raise UsageError("synth needs --out (or CTCFUSE_OUTDIR)")
    vocab, corpus = synth_corpus(SynthConfig(**_field_values(SynthConfig, args)))
    manifest = save_corpus(out_dir, corpus, vocab)
    print(f"wrote {len(corpus)} utterances to {manifest}")
    return 0


def cmd_stats(args) -> int:
    if (args.manifest is None) == (args.text is None):
        raise UsageError("stats needs exactly one of --manifest or --text")
    if args.manifest is not None:
        texts = [transcript for *_, transcript in read_manifest(args.manifest)]
    else:
        if not os.path.exists(args.text):
            raise DataError(f"text file not found: {args.text}")
        texts = [line for line in read_text(args.text).splitlines() if line.strip()]
    lengths = [len([ch for ch in t if not ch.isspace()]) for t in texts]
    stats = corpus_stats(lengths)
    print(stats.render_table())
    print(stats.render_kv())
    return 0


_SWEEP_KEYS = ("method", "t_l", "t_r", "alpha", "n", "pretrain")


def _parse_grid(items: list[str]) -> dict[str, list[str]]:
    grid: dict[str, list[str]] = {}
    for item in items:
        if "=" not in item:
            raise UsageError(f"grid item {item!r} must look like key=v1,v2")
        key, _, values = item.partition("=")
        if key not in _SWEEP_KEYS:
            raise UsageError(f"unknown grid key {key!r}; allowed: {', '.join(_SWEEP_KEYS)}")
        grid[key] = values.split(",")
    if not grid:
        raise UsageError("sweep needs at least one --grid key=v1,v2")
    return grid


def _apply_grid_point(payload: dict, point: dict[str, str]) -> dict:
    out = json.loads(json.dumps(payload))  # deep copy
    for key in ("fusion", "gating", "train"):
        out[key] = _section(out, key, key)
    for key, raw in point.items():
        if key == "method":
            if raw not in METHODS:
                raise UsageError(f"grid method {raw!r} not in {METHODS}")
            out["fusion"]["method"] = raw
        elif key == "alpha":
            out["fusion"]["alpha"] = float(raw)
        elif key == "n":
            out["fusion"]["n"] = int(raw)
            out["fusion"].setdefault("beam_width", max(int(raw), 5))
        elif key == "t_l":
            out["gating"]["mode"] = "absolute"
            out["gating"]["t_l"] = int(raw)
        elif key == "t_r":
            out["gating"]["mode"] = "relative"
            out["gating"]["t_r"] = float(raw)
        elif key == "pretrain":
            if raw == "none":
                out["train"]["pretrain_path"] = None
                out["train"]["pretrain_selection"] = None
            else:
                if not out["train"].get("pretrain_path"):
                    raise UsageError(
                        "grid over pretrain needs train.pretrain_path in the base config"
                    )
                out["train"]["pretrain_selection"] = raw
    return out


def cmd_sweep(args) -> int:
    payload = _load_json(args.config)
    grid = _parse_grid(args.grid)
    out_dir = _outdir(args)
    if not out_dir:
        raise UsageError("sweep needs --out (or CTCFUSE_OUTDIR)")
    os.makedirs(out_dir, exist_ok=True)

    keys = sorted(grid)
    points = [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]
    # every grid point is checked before the first run starts
    try:
        configs = [_apply_grid_point(payload, point) for point in points]
    except ValueError as err:  # a numeric grid value that is not a number
        raise UsageError(f"grid value: {err}") from None
    rows = []
    for point, config in zip(points, configs):
        name = "run_" + "_".join(f"{k}={v}" for k, v in sorted(point.items()))
        run_dir = os.path.join(out_dir, name)
        result = _train_run(config, args.seed, run_dir, echo=False)
        final = result.history[-1]
        rows.append(
            {
                "run": name,
                **point,
                "epochs": final.epoch,
                "joint_loss": round(final.joint_loss, 6),
                "train_cer": None
                if result.final_train_cer is None
                else round(result.final_train_cer, 6),
            }
        )
        if not args.quiet:
            print(f"{name}: joint={final.joint_loss:.4f} cer={result.final_train_cer}")

    header = ["run", *keys, "epochs", "joint_loss", "train_cer"]
    table_path = os.path.join(out_dir, "comparison.tsv")
    with open(table_path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row in rows:
            fh.write("\t".join(str(row.get(col, "")) for col in header) + "\n")
    print(f"wrote {len(rows)} runs to {out_dir} (table: {table_path})")
    return 0


# the fields ``report`` reads from a metrics record, and the JSON types training writes them as
_REPORT_FIELDS = {
    "epoch": int,
    "joint_loss": float,
    "ctc_loss": float,
    "att_loss": float,
    "blanks_inserted": int,
    "train_cer": (float, type(None)),
}


def cmd_report(args) -> int:
    metrics_path = args.metrics or (os.path.join(args.run, METRICS_FILE) if args.run else None)
    if not metrics_path:
        raise UsageError("report needs --run or --metrics")
    if not os.path.exists(metrics_path):
        raise DataError(f"metrics file not found: {metrics_path}")
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
        bad = [key for key, kind in _REPORT_FIELDS.items() if not isinstance(rec.get(key), kind)]
        if bad:
            raise DataError(f"{where}: missing or mistyped {', '.join(bad)}")
        records.append(rec)
    if not records:
        raise DataError(f"{metrics_path}: no records")

    header = f"{'epoch':>5} {'joint':>9} {'ctc':>9} {'att':>9} {'blanks':>7} {'cer':>7}"
    lines = [header]
    for rec in records:
        cer = rec.get("train_cer")
        lines.append(
            f"{rec['epoch']:5d} {rec['joint_loss']:9.4f} {rec['ctc_loss']:9.4f} "
            f"{rec['att_loss']:9.4f} {rec['blanks_inserted']:7d} "
            f"{'-' if cer is None else format(cer, '.4f'):>7}"
        )
    print("\n".join(lines))

    out_dir = _outdir(args) or os.path.dirname(metrics_path) or "."
    os.makedirs(out_dir, exist_ok=True)
    loss_csv = os.path.join(out_dir, "loss.csv")
    with open(loss_csv, "w", encoding="utf-8") as fh:
        fh.write("x,series,value\n")
        for rec in records:
            for series in ("joint_loss", "ctc_loss", "att_loss"):
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
    p.add_argument("--nbest", type=int, default=0, help="also dump CTC N-best lists")
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
    p.add_argument("--out", default=None, required=False)
    _add_field_flags(p, desk_synth_config())
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("stats", help="transcript length distribution")
    p.add_argument("--manifest", default=None)
    p.add_argument("--text", default=None)
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("sweep", help="grid of training runs plus a comparison table")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", nargs="+", required=True, metavar="key=v1,v2")
    p.add_argument("--out", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("report", help="render metrics JSON-lines to tables and plot data")
    p.add_argument("--run", default=None)
    p.add_argument("--metrics", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_report)

    return parser


def _print_error(kind: str, err: Exception) -> None:
    # JSON-encoding keeps quotes and newlines in the message parsable
    msg = json.dumps(str(err), ensure_ascii=False)
    print(f"error kind={kind} msg={msg}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # every op checks its result for non-finite values, and a failure is
        # one error line; numpy's overflow warnings would add lines before it
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


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
