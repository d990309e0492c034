import hashlib

import numpy as np
import pytest

from ctcfuse import data as D
from ctcfuse.data import (
    DataError,
    SynthConfig,
    Utterance,
    Vocabulary,
    build_vocab,
    corpus_stats,
    desk_synth_config,
    load_corpus,
    load_vocab_file,
    make_batches,
    parse_features,
    save_corpus,
    synth_corpus,
    write_features,
)

from oracles import synth_corpus_reference


class TestVocabulary:
    def test_specials_plus_sorted_characters(self):
        vocab = build_vocab(["ab", "ba"])
        assert vocab.size == 4 + 2
        assert vocab.id_to_token[4:] == ("a", "b")
        assert vocab.blank_id == 0 and vocab.unk_id == 1
        assert vocab.sos_id == 2 and vocab.eos_id == 3
        assert len({vocab.blank_id, vocab.unk_id, vocab.sos_id, vocab.eos_id}) == 4

    def test_deterministic(self):
        a = build_vocab(["xyz", "abc"])
        b = build_vocab(["xyz", "abc"])
        assert a.id_to_token == b.id_to_token

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_vocab([])

    def test_tokenize_roundtrip(self):
        vocab = build_vocab(["hello world"])
        ids = vocab.tokenize("hello")
        assert vocab.detokenize(ids) == "hello"

    def test_whitespace_stripped_and_unk(self):
        vocab = build_vocab(["ab"])
        ids = vocab.tokenize("a z b")
        assert ids == (vocab.token_to_id["a"], vocab.unk_id, vocab.token_to_id["b"])

    def test_content_hash_stable(self):
        a = build_vocab(["abc"])
        b = build_vocab(["cba"])
        assert a.content_hash() == b.content_hash()
        # checkpoints store this digest: its input is the token list, one per line
        listing = "\n".join(D.SPECIALS + ("a", "b", "c"))
        assert a.content_hash() == hashlib.sha256(listing.encode("utf-8")).hexdigest()

    @pytest.mark.parametrize(
        "tokens,match",
        [
            (D.SPECIALS + ("a", "b", "a"), "repeats token 'a'"),
            (D.SPECIALS + (D.BLANK_TOKEN,), "repeats token"),
            (("a",) + D.SPECIALS, "reserved tokens"),
            (D.SPECIALS[:3], "reserved tokens"),
        ],
        ids=["repeat", "repeated_special", "specials_not_first", "specials_missing"],
    )
    def test_constructor_rejects_malformed_token_lists(self, tokens, match):
        with pytest.raises(DataError, match=match):
            Vocabulary(tokens)

    def test_vocab_file_with_a_repeated_token_names_the_file(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("".join(t + "\n" for t in D.SPECIALS + ("a", "b", "a")))
        with pytest.raises(DataError, match=f"{path}: vocabulary repeats token 'a'"):
            load_vocab_file(path)


class TestFeatureFiles:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(7, 5)).astype(np.float32)
        path = tmp_path / "x.feat"
        write_features(path, feats)
        loaded = parse_features(path.read_bytes(), path)
        assert loaded.tobytes() == feats.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(DataError, match="not a feature file"):
            parse_features(path.read_bytes(), path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.feat"
        write_features(path, np.ones((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DataError, match="truncated"):
            parse_features(path.read_bytes(), path)


class TestManifest:
    def make_corpus(self, tmp_path, n=2):
        vocab = build_vocab(["abc"])
        rng = np.random.default_rng(1)
        corpus = [
            Utterance(
                utt_id=f"utt-{i}",
                features=rng.normal(size=(5 + i, 3)).astype(np.float32),
                transcript=vocab.tokenize("abc"),
            )
            for i in range(n)
        ]
        manifest = save_corpus(tmp_path / "corpus", corpus, vocab)
        return vocab, corpus, manifest

    def test_two_entries_in_order(self, tmp_path):
        vocab, corpus, manifest = self.make_corpus(tmp_path)
        _, loaded, _ = load_corpus(manifest, tmp_path / "corpus" / "vocab.txt")
        assert [u.utt_id for u in loaded] == ["utt-0", "utt-1"]

    def test_roundtrip_features_bit_exact(self, tmp_path):
        vocab, corpus, manifest = self.make_corpus(tmp_path)
        _, loaded, _ = load_corpus(manifest, tmp_path / "corpus" / "vocab.txt")
        for orig, back in zip(corpus, loaded):
            assert orig.features.tobytes() == back.features.tobytes()
            assert orig.transcript == back.transcript

    def test_frame_count_mismatch_names_utterance(self, tmp_path):
        vocab, corpus, manifest = self.make_corpus(tmp_path)
        lines = open(manifest).read().splitlines()
        parts = lines[1].split("\t")
        parts[2] = "999"
        lines[1] = "\t".join(parts)
        open(manifest, "w").write("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="utt-1"):
            load_corpus(manifest, tmp_path / "corpus" / "vocab.txt")

    def test_missing_feature_file_names_utterance(self, tmp_path):
        vocab, corpus, manifest = self.make_corpus(tmp_path)
        (tmp_path / "corpus" / "features" / "utt-0.feat").unlink()
        with pytest.raises(DataError, match="utt-0"):
            load_corpus(manifest, tmp_path / "corpus" / "vocab.txt")

    def test_vocab_sidecar_roundtrip(self, tmp_path):
        vocab, corpus, manifest = self.make_corpus(tmp_path)
        loaded = load_vocab_file(tmp_path / "corpus" / "vocab.txt")
        assert loaded.id_to_token == vocab.id_to_token


class TestSynthCorpus:
    def test_same_seed_bit_identical(self):
        cfg = SynthConfig(seed=5, count=10)
        _, a = synth_corpus(cfg)
        _, b = synth_corpus(cfg)
        for ua, ub in zip(a, b):
            assert ua.features.tobytes() == ub.features.tobytes()
            assert ua.transcript == ub.transcript

    def test_zero_noise_tiles_prototypes(self):
        cfg = SynthConfig(
            seed=3, count=5, noise=0.0, min_frames_per_token=3, max_frames_per_token=3
        )
        vocab, corpus = synth_corpus(cfg)
        for utt in corpus:
            assert utt.num_frames == 3 * len(utt.transcript)
            blocks = utt.features.reshape(len(utt.transcript), 3, -1)
            for tok_idx in range(len(utt.transcript)):
                block = blocks[tok_idx]
                assert np.all(block == block[0])
            # identical tokens share identical prototypes
            seen = {}
            for tok, block in zip(utt.transcript, blocks):
                key = block[0].tobytes()
                if tok in seen:
                    assert seen[tok] == key
                seen[tok] = key

    @pytest.mark.parametrize(
        "cfg",
        [
            SynthConfig(seed=5, count=20),
            SynthConfig(seed=1, count=10, min_frames_per_token=3, max_frames_per_token=3),
            SynthConfig(seed=2, count=10, noise=0.0),
            SynthConfig(seed=4, count=10, vocab_size=36),
            SynthConfig(seed=6, count=10, feature_dim=1),
            SynthConfig(seed=8, count=4, min_len=1, max_len=1, min_frames_per_token=1,
                        max_frames_per_token=1),
            SynthConfig(seed=9, count=5, min_frames_per_token=1, max_frames_per_token=1000),
            desk_synth_config(seed=3),
        ],
        ids=["default", "fixed-frames", "no-noise", "vocab-36", "dim-1", "one-frame",
             "frames-1-1000", "desk"],
    )
    def test_bytes_equal_token_by_token_reference(self, cfg):
        vocab, corpus = synth_corpus(cfg)
        ref_vocab, ref = synth_corpus_reference(cfg)
        assert vocab.id_to_token == ref_vocab.id_to_token
        assert len(corpus) == len(ref)
        for u, r in zip(corpus, ref):
            assert u.utt_id == r.utt_id and u.transcript == r.transcript
            assert u.features.shape == r.features.shape
            assert u.features.tobytes() == r.features.tobytes()

    def test_degenerate_length_range_rejected(self):
        with pytest.raises(DataError):
            SynthConfig(min_len=5, max_len=3)

    def test_tiny_vocab_rejected(self):
        with pytest.raises(DataError):
            SynthConfig(vocab_size=1)

    def test_utterance_count_bound(self):
        # one-float utterances: the feature-value bound alone would admit 10**8
        tiny = dict(min_len=1, max_len=1, min_frames_per_token=1, max_frames_per_token=1,
                    feature_dim=1)
        SynthConfig(count=D.MAX_SYNTH_UTTERANCES, **tiny)  # checked, not generated
        with pytest.raises(DataError, match=r"^count = 1000001: "):
            SynthConfig(count=D.MAX_SYNTH_UTTERANCES + 1, **tiny)

    def test_desk_defaults(self):
        cfg = desk_synth_config(seed=7)
        assert cfg.count == 200 and cfg.vocab_size == 16
        # frames per token must survive 4x subsampling with margin
        assert cfg.min_frames_per_token >= 2 * 4


class TestBatches:
    def setup_method(self):
        self.vocab, self.corpus = synth_corpus(SynthConfig(seed=11, count=5))

    def test_sizes_2_2_1(self):
        batches = make_batches(self.corpus, 2)
        assert [b.size for b in batches] == [2, 2, 1]

    def test_same_seed_same_order(self):
        a = make_batches(self.corpus, 2, seed=4)
        b = make_batches(self.corpus, 2, seed=4)
        assert [x.utt_ids for x in a] == [x.utt_ids for x in b]

    def test_partition_preserves_ids(self):
        batches = make_batches(self.corpus, 2, seed=1)
        ids = sorted(i for b in batches for i in b.utt_ids)
        assert ids == sorted(u.utt_id for u in self.corpus)

    def test_padding_content_and_mask(self):
        batches = make_batches(self.corpus, 5)
        batch = batches[0]
        for row, utt_id in enumerate(batch.utt_ids):
            utt = next(u for u in self.corpus if u.utt_id == utt_id)
            n = utt.num_frames
            assert batch.features[row, :n].astype(np.float32).tobytes() == utt.features.tobytes()
            assert np.all(batch.features[row, n:] == 0.0)
            assert batch.feat_lengths[row] == n

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            make_batches([], 2)


class TestCorpusStats:
    def test_three_lengths(self):
        stats = corpus_stats([3, 7, 12])
        assert stats.percentages[:3] == (
            pytest.approx(33.3333, abs=1e-3),
            pytest.approx(33.3333, abs=1e-3),
            pytest.approx(33.3333, abs=1e-3),
        )
        assert stats.percentages[3:] == (0.0, 0.0, 0.0)

    def test_empty_bucket_rendered_as_zero(self):
        stats = corpus_stats([3])
        table = stats.render_table()
        assert " 0.00%" in table
        kv = stats.render_kv()
        assert "bucket_ge25=0.00" in kv

    def test_percentages_sum_to_hundred(self):
        rng = np.random.default_rng(2)
        lengths = rng.integers(1, 40, size=500)
        stats = corpus_stats(lengths)
        assert abs(sum(stats.percentages) - 100.0) < 0.01

    def test_bucket_boundaries(self):
        stats = corpus_stats([5, 6, 9, 10, 14, 15, 19, 20, 24, 25, 40])
        assert stats.counts == (1, 2, 2, 2, 2, 2)
