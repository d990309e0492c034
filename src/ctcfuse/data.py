"""Vocabulary, corpus ingestion, batching, synthetic corpora, and configs built from JSON.

Character-level modeling: transcripts are sequences of single characters
with whitespace stripped. Four reserved tokens (blank/unk/sos/eos) sit at
the head of every vocabulary; the end-of-sequence id doubles as the
padding id, which masks make unobservable.
"""

from __future__ import annotations

import hashlib
import os
import struct
import typing
from dataclasses import dataclass, field

import numpy as np

BLANK_TOKEN = "<blank>"
UNK_TOKEN = "<unk>"
SOS_TOKEN = "<sos>"
EOS_TOKEN = "<eos>"
SPECIALS = (BLANK_TOKEN, UNK_TOKEN, SOS_TOKEN, EOS_TOKEN)

TokenSeq = tuple[int, ...]


class DataError(Exception):
    """Raised for malformed manifests, feature files, or corpora."""


class UsageError(ValueError):
    """Bad flags, malformed configs, unknown keys."""


def json_fits(value, hint) -> bool:
    """True if a JSON value fills a field typed ``hint``: an int fills a float, a bool no number."""
    kinds = typing.get_args(hint) or (hint,)
    kinds += (int,) if float in kinds else ()
    return isinstance(value, kinds) and (bool in kinds or not isinstance(value, bool))


def build_config(cls, payload: dict, where: str):
    """``cls(**payload)``; an unknown key or a mistyped or rejected value is a ``UsageError``."""
    types = typing.get_type_hints(cls)
    unknown = sorted(set(payload) - set(types))
    if unknown:
        raise UsageError(f"unknown keys in {where}: {', '.join(unknown)}")
    for key, value in payload.items():
        if not json_fits(value, types[key]):
            kind = getattr(types[key], "__name__", str(types[key]))
            raise UsageError(f"invalid {where}: {key} must be {kind}, not {value!r}")
    try:
        return cls(**payload)
    except (TypeError, ValueError) as err:
        raise UsageError(f"invalid {where}: {err}") from err


@dataclass(frozen=True)
class Vocabulary:
    """Token inventory: the reserved ``SPECIALS`` at ids 0-3, then distinct other tokens."""

    id_to_token: tuple[str, ...]
    token_to_id: dict = field(init=False, repr=False, compare=False)
    blank_id = 0
    unk_id = 1
    sos_id = 2
    eos_id = 3

    def __post_init__(self):
        if tuple(self.id_to_token[: len(SPECIALS)]) != SPECIALS:
            raise DataError("a vocabulary must start with the four reserved tokens")
        token_to_id = {}
        for i, token in enumerate(self.id_to_token):
            if token in token_to_id:
                raise DataError(f"vocabulary repeats token {token!r}")
            token_to_id[token] = i
        object.__setattr__(self, "token_to_id", token_to_id)

    @property
    def pad_id(self) -> int:
        return self.eos_id

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    @classmethod
    def from_tokens(cls, tokens) -> "Vocabulary":
        """Vocabulary over explicit non-special tokens, kept in sorted order."""
        return cls(SPECIALS + tuple(sorted(set(tokens))))

    def tokenize(self, text: str) -> TokenSeq:
        """Character ids for ``text``; unseen characters map to unk."""
        return tuple(
            self.token_to_id.get(ch, self.unk_id) for ch in text if not ch.isspace()
        )

    def detokenize(self, ids) -> str:
        return "".join(self.id_to_token[i] for i in ids)

    def content_hash(self) -> str:
        return hashlib.sha256("\n".join(self.id_to_token).encode("utf-8")).hexdigest()


def build_vocab(transcripts) -> Vocabulary:
    """Specials plus the sorted distinct characters of a transcript corpus."""
    transcripts = list(transcripts)
    if not transcripts:
        raise DataError("cannot build a vocabulary from an empty corpus")
    chars = set()
    for text in transcripts:
        chars.update(ch for ch in text if not ch.isspace())
    return Vocabulary.from_tokens(chars)


@dataclass
class Utterance:
    """One training/eval example: feature matrix plus character-id transcript."""

    utt_id: str
    features: np.ndarray  # [T, F] float32
    transcript: TokenSeq

    def __post_init__(self):
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise DataError(f"utterance {self.utt_id}: features must be [T>=1, F]")
        if len(self.transcript) < 1:
            raise DataError(f"utterance {self.utt_id}: empty transcript")
        if not np.all(np.isfinite(self.features)):
            raise DataError(f"utterance {self.utt_id}: non-finite feature values")

    @property
    def num_frames(self) -> int:
        return self.features.shape[0]


@dataclass
class Batch:
    """Utterances with frames zero-padded to a common length."""

    utt_ids: list[str]
    features: np.ndarray  # [B, Tmax, F] float64, padded with 0.0
    feat_lengths: np.ndarray  # [B] int64
    transcripts: list[TokenSeq]

    @property
    def size(self) -> int:
        return len(self.utt_ids)


def read_text(path) -> str:
    """A UTF-8 file's text, line ends as text mode reads them; other bytes are a data error."""
    with open(path, "rb") as fh:
        return _decode_text(fh.read(), path)


def _decode_text(blob: bytes, path) -> str:
    """``blob``, the bytes of the text file ``path``, as :func:`read_text` returns them."""
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as err:
        raise DataError(f"{path}: not UTF-8 text: {err}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


# -- feature file format ------------------------------------------------------

_FEATURE_MAGIC = b"FEAT"
_FEATURE_VERSION = 1


def write_features(path, features: np.ndarray) -> None:
    """Binary feature matrix: magic, version, rows, cols, dtype tag, f32 LE payload."""
    arr = np.ascontiguousarray(features, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(_FEATURE_MAGIC)
        fh.write(struct.pack("<IIIB", _FEATURE_VERSION, arr.shape[0], arr.shape[1], 1))
        fh.write(arr.tobytes())


def parse_features(blob: bytes, path) -> np.ndarray:
    """The feature matrix held by ``blob``, the bytes of the feature file ``path``."""
    if len(blob) < 17 or blob[:4] != _FEATURE_MAGIC:
        raise DataError(f"{path}: not a feature file")
    version, rows, cols, tag = struct.unpack("<IIIB", blob[4:17])
    if version != _FEATURE_VERSION:
        raise DataError(f"{path}: feature file version {version} unsupported")
    if tag != 1:
        raise DataError(f"{path}: unknown dtype tag {tag}")
    if len(blob) - 17 < rows * cols * 4:
        raise DataError(f"{path}: truncated feature payload")
    return np.frombuffer(blob, "<f4", rows * cols, offset=17).reshape(rows, cols).copy()


# -- manifest ----------------------------------------------------------------


def read_manifest(path) -> tuple[bytes, list[tuple[int, str, str, int, str]]]:
    """A manifest's bytes and ``(line_no, utt_id, feature_path, num_frames, transcript)`` tuples.

    Lines are ``utt_id<TAB>feature_path<TAB>num_frames<TAB>transcript``;
    blank lines are skipped and no id may repeat. Relative feature paths
    come back resolved against the manifest's directory, unchecked: only
    :func:`load_corpus` needs the files to exist.
    """
    if not os.path.exists(path):
        raise DataError(f"manifest not found: {path}")
    with open(path, "rb") as fh:
        blob = fh.read()
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    seen = {}  # utterance id -> line
    for line_no, line in enumerate(_decode_text(blob, path).split("\n"), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise DataError(f"{path}:{line_no}: expected 4 tab-separated fields")
        utt_id, feat_path, num_frames, transcript = parts
        try:
            frames = int(num_frames)
        except ValueError:
            raise DataError(
                f"{path}:{line_no}: frame count {num_frames!r} is not an integer"
            ) from None
        if seen.setdefault(utt_id, line_no) != line_no:
            raise DataError(f"{path}:{line_no}: id {utt_id!r} repeats line {seen[utt_id]}")
        entries.append((line_no, utt_id, os.path.join(base, feat_path), frames, transcript))
    return blob, entries


def load_corpus(manifest, vocab_path=None) -> tuple[Vocabulary, list[Utterance], str]:
    """Vocabulary, utterances and input content hash of a manifest; each file is read once.

    The vocabulary is the file ``vocab_path`` if given, else built from the
    transcripts. Frame counts are cross-checked against the feature files,
    and every feature file must have the first one's width. The hash is the
    SHA-256 of the manifest's bytes, then each feature file's in order.
    """
    blob, entries = read_manifest(manifest)
    digest = hashlib.sha256(blob)
    if vocab_path:
        vocab = load_vocab_file(vocab_path)
    else:
        vocab = build_vocab(transcript for *_, transcript in entries)
    utterances = []
    for line_no, utt_id, feat_path, num_frames, transcript in entries:
        if not os.path.exists(feat_path):
            raise DataError(f"utterance {utt_id}: missing feature file {feat_path}")
        with open(feat_path, "rb") as fh:
            feat_blob = fh.read()
        digest.update(feat_blob)
        features = parse_features(feat_blob, feat_path)
        if features.shape[0] != num_frames:
            raise DataError(
                f"utterance {utt_id}: manifest says {num_frames} frames, "
                f"file has {features.shape[0]}"
            )
        if utterances and features.shape[1] != utterances[0].features.shape[1]:
            raise DataError(
                f"{manifest}:{line_no}: utterance {utt_id} has features {features.shape[1]} "
                f"wide, the first utterance {utterances[0].features.shape[1]}"
            )
        utterances.append(
            Utterance(utt_id=utt_id, features=features, transcript=vocab.tokenize(transcript))
        )
    if not utterances:
        raise DataError(f"{manifest}: empty manifest")
    return vocab, utterances, digest.hexdigest()


def save_corpus(directory, corpus: list[Utterance], vocab: Vocabulary) -> str:
    """Write features, a manifest, and a vocab sidecar; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    feat_dir = os.path.join(directory, "features")
    os.makedirs(feat_dir, exist_ok=True)
    manifest = os.path.join(directory, "manifest.tsv")
    with open(manifest, "w", encoding="utf-8") as fh:
        for utt in corpus:
            rel = os.path.join("features", f"{utt.utt_id}.feat")
            write_features(os.path.join(directory, rel), utt.features)
            text = vocab.detokenize(utt.transcript)
            fh.write(f"{utt.utt_id}\t{rel}\t{utt.num_frames}\t{text}\n")
    with open(os.path.join(directory, "vocab.txt"), "w", encoding="utf-8") as fh:
        for token in vocab.id_to_token:
            fh.write(token + "\n")
    return manifest


def load_vocab_file(path) -> Vocabulary:
    """The vocabulary listed one token per line in ``path`` (blank lines skipped)."""
    try:
        return Vocabulary(tuple(line for line in read_text(path).split("\n") if line))
    except DataError as err:
        raise DataError(f"{path}: {err}") from None


# -- synthetic corpus ---------------------------------------------------------

_SYNTH_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789"

# feature values: a synthetic corpus that could hold more (count x max_len x
# max_frames_per_token x feature_dim) is a data error, refused before any is
# generated (the desk corpus can hold 115,200)
MAX_SYNTH_FLOATS = 10**8


@dataclass(frozen=True)
class SynthConfig:
    """Generator settings for the monotonic-transduction toy corpus.

    Each token owns a fixed random prototype vector; an utterance tiles
    the prototypes of its transcript, each repeated a random number of
    frames, plus Gaussian noise.
    """

    vocab_size: int = 16
    count: int = 200
    min_len: int = 3
    max_len: int = 8
    min_frames_per_token: int = 2
    max_frames_per_token: int = 4
    noise: float = 0.1
    feature_dim: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 2:
            raise DataError("synthetic vocabulary needs at least 2 tokens")
        if self.vocab_size > len(_SYNTH_ALPHABET):
            raise DataError(f"synthetic vocabulary capped at {len(_SYNTH_ALPHABET)} tokens")
        if self.min_len < 1 or self.max_len < self.min_len:
            raise DataError("degenerate transcript length range")
        if self.min_frames_per_token < 1 or self.max_frames_per_token < self.min_frames_per_token:
            raise DataError("degenerate frames-per-token range")
        if self.count < 1:
            raise DataError("corpus count must be >= 1")
        if self.feature_dim < 1:
            raise DataError("feature_dim must be >= 1")
        if not 0.0 <= self.noise < np.inf:
            raise DataError("noise must be a finite number >= 0")
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        floats = self.count * self.max_len * self.max_frames_per_token * self.feature_dim
        if floats > MAX_SYNTH_FLOATS:
            raise DataError(f"count = {self.count}: the corpus could hold {floats:,} feature "
                            f"values, more than {MAX_SYNTH_FLOATS:,}")


def synth_corpus(cfg: SynthConfig) -> tuple[Vocabulary, list[Utterance]]:
    """Deterministic toy corpus: same seed, bit-identical output."""
    rng = np.random.default_rng(cfg.seed)
    alphabet = _SYNTH_ALPHABET[: cfg.vocab_size]
    vocab = Vocabulary.from_tokens(alphabet)
    prototypes = rng.normal(size=(cfg.vocab_size, cfg.feature_dim))
    char_ids = [vocab.token_to_id[ch] for ch in alphabet]

    corpus = []
    for i in range(cfg.count):
        length = int(rng.integers(cfg.min_len, cfg.max_len + 1))
        picks = rng.integers(0, cfg.vocab_size, size=length)
        transcript = tuple(char_ids[p] for p in picks.tolist())
        # one vector draw takes the same 32-bit values as one scalar draw per token
        reps = rng.integers(cfg.min_frames_per_token, cfg.max_frames_per_token + 1, size=length)
        features = np.repeat(prototypes[picks], reps, axis=0)
        if cfg.noise > 0.0:
            features = features + cfg.noise * rng.normal(size=features.shape)
        corpus.append(
            Utterance(
                utt_id=f"synth-{i:05d}",
                features=features.astype(np.float32),
                transcript=transcript,
            )
        )
    return vocab, corpus


def desk_synth_config(seed: int = 7) -> SynthConfig:
    """Default desk-scale corpus: enough frames per token to survive 4x subsampling."""
    return SynthConfig(
        max_len=6, min_frames_per_token=8, max_frames_per_token=12, noise=0.08, seed=seed
    )


# -- batching -----------------------------------------------------------------


def make_batches(corpus: list[Utterance], batch_size: int, seed: int = 0) -> list[Batch]:
    """The corpus in ``seed``'s shuffled order, cut into batches; frames are padded with 0.0."""
    if not corpus:
        raise DataError("cannot batch an empty corpus")
    order = np.random.default_rng(seed).permutation(len(corpus))
    batches = []
    for start in range(0, len(order), batch_size):
        group = [corpus[i] for i in order[start : start + batch_size]]
        t_max = max(u.num_frames for u in group)
        feats = np.zeros((len(group), t_max, group[0].features.shape[1]), dtype=np.float64)
        for row, utt in enumerate(group):
            feats[row, : utt.num_frames] = utt.features
        batches.append(
            Batch(
                utt_ids=[u.utt_id for u in group],
                features=feats,
                feat_lengths=np.array([u.num_frames for u in group], dtype=np.int64),
                transcripts=[u.transcript for u in group],
            )
        )
    return batches


def pad_id_rows(rows, pad_id: int, length: int | None = None) -> np.ndarray:
    """Token-id rows as an int64 ``[B, L]`` array filled out with ``pad_id``.

    ``L`` is the longest row's length, or ``length`` when given; rows
    longer than ``length`` are clipped to it.
    """
    if length is None:
        length = max(len(row) for row in rows)
    ids = np.full((len(rows), length), pad_id, dtype=np.int64)
    for i, row in enumerate(rows):
        row = row[:length]
        ids[i, : len(row)] = row
    return ids


# -- corpus statistics -------------------------------------------------------

LENGTH_BUCKETS = ((1, 5), (6, 9), (10, 14), (15, 19), (20, 24), (25, None))


@dataclass(frozen=True)
class CorpusStats:
    """Transcript-length distribution over the fixed bucket boundaries."""

    counts: tuple[int, ...]
    total: int

    @property
    def percentages(self) -> tuple[float, ...]:
        if self.total == 0:
            return tuple(0.0 for _ in self.counts)
        return tuple(100.0 * c / self.total for c in self.counts)

    def bucket_label(self, idx: int) -> str:
        lo, hi = LENGTH_BUCKETS[idx]
        return f">={lo}" if hi is None else f"{lo}-{hi}"

    def render_table(self) -> str:
        header = " | ".join(f"{self.bucket_label(i):>6}" for i in range(len(LENGTH_BUCKETS)))
        row = " | ".join(f"{p:5.2f}%" for p in self.percentages)
        return f"{header}\n{row}"

    def render_kv(self) -> str:
        lines = [f"total={self.total}"]
        for i, p in enumerate(self.percentages):
            key = self.bucket_label(i).replace(">=", "ge").replace("-", "_")
            lines.append(f"bucket_{key}={p:.2f}")
        return "\n".join(lines)


def corpus_stats(lengths) -> CorpusStats:
    """Bucketed percentage distribution of transcript lengths."""
    lengths = list(lengths)
    counts = [0] * len(LENGTH_BUCKETS)
    for n in lengths:
        for i, (lo, hi) in enumerate(LENGTH_BUCKETS):
            if n >= lo and (hi is None or n <= hi):
                counts[i] += 1
                break
    return CorpusStats(counts=tuple(counts), total=len(lengths))
