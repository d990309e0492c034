import numpy as np
import pytest

from ctcfuse.alignment import (
    AlignedPair,
    GatingConfig,
    PathwayDecision,
    aef_align,
    cer,
    edit_distance,
    gate,
    render_alignment,
)

from oracles import levenshtein_oracle

BLANK = 0
A, B, C, X = 1, 2, 3, 4


def random_pair(rng, vocab=5, max_len=12):
    la = int(rng.integers(1, max_len))
    lb = int(rng.integers(0, max_len))
    a = tuple(int(t) for t in rng.integers(1, vocab + 1, size=la))
    b = tuple(int(t) for t in rng.integers(1, vocab + 1, size=lb))
    return a, b


class TestEditDistance:
    def test_identity(self):
        cost, script = edit_distance((A, B), (A, B))
        assert cost == 0
        assert all(op == "match" for op, _, _ in script)

    def test_single_deletion(self):
        cost, _ = edit_distance((A, B, C, A), (A, C, A))
        assert cost == 1
        assert cost == levenshtein_oracle((A, B, C, A), (A, C, A))

    def test_empty_target_all_deletions(self):
        cost, script = edit_distance((A, B, C), ())
        assert cost == 3
        assert [op for op, _, _ in script] == ["del", "del", "del"]

    @pytest.mark.parametrize("seed", range(30))
    def test_cost_matches_two_row_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a, b = random_pair(rng)
        cost, script = edit_distance(a, b)
        assert cost == levenshtein_oracle(a, b)
        # script must reconstruct both sequences and its cost must agree
        ops = [op for op, _, _ in script]
        assert sum(op != "match" for op in ops) == cost
        assert tuple(t for op, t, _ in script if op in ("match", "sub", "del")) == a
        assert tuple(t for op, _, t in script if op in ("match", "sub", "ins")) == b

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(1000 + seed)
        a, b = random_pair(rng)
        assert edit_distance(a, b)[0] == edit_distance(b, a)[0]


class TestAefAlign:
    def test_deletion_example(self):
        pair = aef_align((A, B, C, A), (A, C, A), BLANK)
        assert pair.y_align == (A, B, C, A)
        assert pair.w_align == (A, BLANK, C, A)
        assert pair.blanks_inserted == 1

    def test_equal_inputs_untouched(self):
        pair = aef_align((A, B), (A, B), BLANK)
        assert pair.y_align == (A, B)
        assert pair.w_align == (A, B)
        assert pair.blanks_inserted == 0

    def test_insertion_puts_blank_in_reference(self):
        pair = aef_align((A, B), (A, X, B), BLANK)
        assert pair.y_align == (A, BLANK, B)
        assert pair.w_align == (A, X, B)
        assert pair.blanks_inserted == 1
        assert pair.y_align.count(BLANK) == 1  # one insertion

    def test_blank_input_rejected(self):
        with pytest.raises(ValueError, match="blank"):
            aef_align((A, BLANK), (A,), BLANK)

    def test_never_blank_on_both_sides(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = random_pair(rng)
            pair = aef_align(a, b, BLANK)
            assert not any(
                ya == BLANK and wa == BLANK for ya, wa in zip(pair.y_align, pair.w_align)
            )

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip_and_length_identities(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(100):
            y, w = random_pair(rng)
            pair = aef_align(y, w, BLANK)
            assert tuple(t for t in pair.y_align if t != BLANK) == y
            assert tuple(t for t in pair.w_align if t != BLANK) == w
            assert len(pair.y_align) == len(pair.w_align)
            # an insertion is a blank in y_align, a deletion one in w_align
            insertions, deletions = pair.y_align.count(BLANK), pair.w_align.count(BLANK)
            assert len(pair.y_align) == len(y) + insertions
            assert len(pair.w_align) == len(w) + deletions
            assert pair.blanks_inserted == insertions + deletions

    @pytest.mark.parametrize("seed", range(10))
    def test_mismatch_count_equals_edit_distance(self, seed):
        rng = np.random.default_rng(200 + seed)
        for _ in range(100):
            y, w = random_pair(rng)
            pair = aef_align(y, w, BLANK)
            mismatches = sum(ya != wa for ya, wa in zip(pair.y_align, pair.w_align))
            assert mismatches == levenshtein_oracle(y, w)

    def test_unequal_aligned_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            AlignedPair((A,), (A, B), BLANK, 0)

    def test_render(self):
        pair = aef_align((A, B, C, A), (A, C, A), BLANK)
        text = render_alignment(pair, {A: "A", B: "B", C: "C"})
        lines = text.splitlines()
        assert lines[0] == "REF: A B C A"
        assert lines[1] == "HYP: A - C A"
        assert lines[2] == "OPS: = D = ="
        assert lines[3] == "blanks_inserted: 1"


class TestGate:
    # mode x relation coverage, threshold equality counts as close
    CASES = [
        ("absolute", 10, 10, PathwayDecision.FUSE),
        ("absolute", 11, 10, PathwayDecision.CTC_AS_INPUT),  # strictly inside
        ("absolute", 12, 10, PathwayDecision.CTC_AS_INPUT),  # boundary |d| == t_l
        ("absolute", 8, 10, PathwayDecision.CTC_AS_INPUT),  # boundary, short side
        ("absolute", 13, 10, PathwayDecision.GROUND_TRUTH_ONLY),
        ("relative", 10, 10, PathwayDecision.FUSE),
        ("relative", 21, 20, PathwayDecision.CTC_AS_INPUT),  # strictly inside
        ("relative", 23, 20, PathwayDecision.CTC_AS_INPUT),  # boundary d/L == t_r
        ("relative", 15, 10, PathwayDecision.GROUND_TRUTH_ONLY),
    ]

    @pytest.mark.parametrize("mode,len_ctc,len_gt,expected", CASES)
    def test_rule_table(self, mode, len_ctc, len_gt, expected):
        cfg = GatingConfig(mode=mode, t_l=2, t_r=0.15)
        assert gate(len_ctc, len_gt, cfg) == expected

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(9)
        order = {
            PathwayDecision.GROUND_TRUTH_ONLY: 0,
            PathwayDecision.CTC_AS_INPUT: 1,
            PathwayDecision.FUSE: 2,
        }
        for _ in range(100):
            len_gt = int(rng.integers(1, 30))
            len_ctc = int(rng.integers(0, 40))
            lo, hi = sorted(rng.integers(0, 10, size=2))
            d_lo = gate(len_ctc, len_gt, GatingConfig(mode="absolute", t_l=int(lo)))
            d_hi = gate(len_ctc, len_gt, GatingConfig(mode="absolute", t_l=int(hi)))
            assert order[d_hi] >= order[d_lo]

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            gate(3, 0, GatingConfig())

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            GatingConfig(mode="both")


class TestCer:
    def test_identical(self):
        assert cer((A, B, C), (A, B, C)) == 0.0

    def test_one_deletion_over_four(self):
        assert cer((A, B, C, A), (A, C, A)) == 0.25

    def test_empty_hypothesis(self):
        assert cer((A, B), ()) == 1.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            cer((), (A,))
