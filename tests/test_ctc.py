import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from ctcfuse import ctc
from ctcfuse.ctc import collapse, greedy_1best, prefix_beam_nbest
from ctcfuse.tensor import NumericError, Tensor

from oracles import (
    CtcPosterior,
    ctc_loss_reference,
    exhaustive_ctc_loss,
    exhaustive_ctc_scores,
    prefix_beam_reference,
    random_posterior,
)

BLANK = 0
# a beam wider than any frame's candidates on these posteriors: nothing is pruned
UNPRUNED = 10**6
A, B, C = 1, 2, 3


def uniform_posterior(t_frames: int, vocab: int) -> CtcPosterior:
    lp = np.full((t_frames, vocab), -np.log(vocab))
    return CtcPosterior(lp, BLANK)


def greedy_one(lp: np.ndarray, blank: int = BLANK):
    """``greedy_1best`` of one [T, V] posterior: a batch of one."""
    return greedy_1best(lp[None], [len(lp)], blank)[0]


def search_one(lp: np.ndarray, beam_width: int, n: int, blank: int = BLANK):
    """``prefix_beam_nbest`` of one [T, V] posterior: a batch of one."""
    return prefix_beam_nbest(lp[None], [len(lp)], blank, beam_width, n)[0]


def op_loss(lp: np.ndarray, target) -> tuple[float, np.ndarray]:
    """Loss and [T, V] gradient of ``ctc_loss_op`` on a batch of one.

    As in training, the row is used only when it has enough frames for its target.
    """
    use = lp.shape[0] >= ctc.min_frames(target)
    _, res = ctc.ctc_loss_op(Tensor(lp[None]), [lp.shape[0]], [target], [use], BLANK)
    return float(res.losses[0]), res.grad[0]


class TestCollapse:
    def test_merge_then_drop(self):
        assert collapse([A, A, BLANK, B], BLANK) == (A, B)

    def test_all_blank(self):
        assert collapse([BLANK, BLANK], BLANK) == ()

    def test_blank_separates_repeats(self):
        assert collapse([A, BLANK, A], BLANK) == (A, A)

    def test_empty(self):
        assert collapse([], BLANK) == ()


class TestCtcLoss:
    def test_two_frame_uniform(self):
        # paths aa, a-, -a out of {a,-}^2, each 0.25 -> P=0.75
        loss, _ = op_loss(uniform_posterior(2, 2).log_probs, (1,))
        assert np.isclose(loss, -math.log(0.75), rtol=1e-12)

    def test_empty_target_is_all_blank_path(self):
        rng = np.random.default_rng(0)
        lp = random_posterior(rng, 4, 3)
        loss, _ = op_loss(lp, ())
        assert np.isclose(loss, -lp[:, BLANK].sum(), rtol=1e-12)

    def test_repeat_needs_separator(self):
        loss, grad = op_loss(uniform_posterior(2, 2).log_probs, (1, 1))
        assert loss == math.inf
        assert np.all(grad == 0.0)

    def test_blank_in_target_rejected(self):
        with pytest.raises(ValueError, match="blank"):
            op_loss(uniform_posterior(3, 2).log_probs, (BLANK,))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        t_frames = int(rng.integers(1, 7))
        vocab = int(rng.integers(2, 5))
        tgt_len = int(rng.integers(0, 4))
        target = tuple(int(x) for x in rng.integers(1, vocab, size=tgt_len))
        lp = random_posterior(rng, t_frames, vocab)
        ref = exhaustive_ctc_loss(lp, target, BLANK)
        # the op, and the per-utterance reference TestBatchedLoss holds it to
        reference = ctc_loss_reference(CtcPosterior(lp, BLANK), target).loss
        for ours in (op_loss(lp, target)[0], reference):
            if math.isinf(ref):
                assert ours == math.inf
            else:
                assert np.isclose(ours, ref, rtol=1e-9), (ours, ref)

    def test_total_probability_conserved(self):
        # collapse partitions paths: summing exp(-loss) over every possible
        # target of length <= T must give exactly 1
        rng = np.random.default_rng(42)
        for t_frames, vocab in [(2, 2), (3, 3), (4, 3)]:
            lp = random_posterior(rng, t_frames, vocab)
            total = 0.0
            for length in range(t_frames + 1):
                for target in product(range(1, vocab), repeat=length):
                    total += math.exp(-op_loss(lp, target)[0])
            assert abs(total - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(100 + seed)
        lp = random_posterior(rng, 5, 3)
        target = (1, 2)
        _, grad = op_loss(lp, target)
        step = 1e-6
        for t in range(lp.shape[0]):
            for k in range(lp.shape[1]):
                up = lp.copy()
                up[t, k] += step
                down = lp.copy()
                down[t, k] -= step
                num = (op_loss(up, target)[0] - op_loss(down, target)[0]) / (2 * step)
                denom = max(abs(num), abs(grad[t, k]), 1e-6)
                assert abs(num - grad[t, k]) / denom < 1e-5

    def test_gradient_rows_sum_to_minus_one(self):
        rng = np.random.default_rng(7)
        lp = random_posterior(rng, 6, 4)
        _, grad = op_loss(lp, (1, 3))
        np.testing.assert_allclose(grad.sum(axis=1), -1.0, rtol=1e-10)

    def test_autodiff_wrapper_backpropagates(self):
        rng = np.random.default_rng(8)
        lp = Tensor(random_posterior(rng, 4, 3)[None], requires_grad=True)
        loss, res = ctc.ctc_loss_op(lp, [4], [(1,)], [True], BLANK)
        (loss * 2.0).backward()
        np.testing.assert_allclose(lp.grad, 2.0 * res.grad, rtol=1e-12)

    def test_autodiff_wrapper_rejects_unreachable(self):
        # the second row's target needs three frames
        lp = Tensor(np.stack([uniform_posterior(2, 2).log_probs] * 2), requires_grad=True)
        with pytest.raises(ValueError, match="unreachable"):
            ctc.ctc_loss_op(lp, [2, 2], [(1,), (1, 1)], [True, True], BLANK)
        ctc.ctc_loss_op(lp, [2, 2], [(1,), (1, 1)], [True, False], BLANK)



def padded_batch(rng, lengths, vocab, t_max=None):
    """Random posteriors, one per length, stacked with random padding frames."""
    t_max = t_max or max(lengths)
    return np.stack([random_posterior(rng, t_max, vocab) for _ in lengths]), np.array(lengths)


class TestBatchedLoss:
    # mixed frame counts and target lengths, repeated tokens, a one-frame
    # utterance, an empty target, an unreachable row and a reachable row
    # that ``use`` leaves out
    LENGTHS = [6, 1, 9, 4, 7, 3, 8, 5]
    TARGETS = [(1, 2, 1), (2,), (3, 3, 1, 1), (), (1, 1, 1), (2, 2, 2), (3, 1, 2, 3), (1, 3)]
    USE = [True, True, True, True, True, False, True, False]

    def test_rows_match_per_utterance_loss(self):
        rng = np.random.default_rng(11)
        lp, lengths = padded_batch(rng, self.LENGTHS, 4)
        _, res = ctc.ctc_loss_op(Tensor(lp), lengths, self.TARGETS, self.USE, BLANK)
        for i, (t_i, target) in enumerate(zip(lengths, self.TARGETS)):
            ref = ctc_loss_reference(CtcPosterior(lp[i, :t_i], BLANK), target)
            if not ref.reachable:
                assert res.losses[i] == math.inf
            else:
                np.testing.assert_allclose(res.losses[i], ref.loss, rtol=1e-12)
            if self.USE[i]:
                np.testing.assert_allclose(res.grad[i, :t_i], ref.grad, rtol=1e-12, atol=1e-300)
                assert np.all(res.grad[i, t_i:] == 0.0)
            else:
                assert np.all(res.grad[i] == 0.0)
        # row 5 ((2, 2, 2) in 3 frames) is the unreachable one
        assert res.losses[5] == math.inf and math.isfinite(res.losses[7])

    def test_mean_sums_used_rows_in_order(self):
        rng = np.random.default_rng(12)
        lp, lengths = padded_batch(rng, self.LENGTHS, 4)
        post = Tensor(lp, requires_grad=True)
        loss, res = ctc.ctc_loss_op(post, lengths, self.TARGETS, self.USE, BLANK)
        used = [i for i, ok in enumerate(self.USE) if ok]
        total = 0.0
        for i in used:
            total += ctc_loss_reference(
                CtcPosterior(lp[i, : lengths[i]], BLANK), self.TARGETS[i]
            ).loss
        np.testing.assert_allclose(loss.item(), total / len(used), rtol=1e-12)
        (loss * 2.0).backward()
        np.testing.assert_allclose(post.grad, res.grad * (2.0 / len(used)), rtol=1e-12)

    def test_row_alone_equals_row_in_padded_batch(self):
        rng = np.random.default_rng(13)
        lp, lengths = padded_batch(rng, self.LENGTHS, 4, t_max=12)
        use = [True] * 5 + [False] + [True, True]
        _, batch = ctc.ctc_loss_op(Tensor(lp), lengths, self.TARGETS, use, BLANK)
        for i in np.flatnonzero(use):
            t_i = lengths[i]
            _, alone = ctc.ctc_loss_op(Tensor(lp[i : i + 1, :t_i]), [t_i], [self.TARGETS[i]], [True], BLANK)
            assert alone.losses[0] == batch.losses[i]
            assert np.array_equal(alone.grad[0], batch.grad[i, :t_i])

    def test_no_used_row_gives_constant_zero(self):
        rng = np.random.default_rng(14)
        lp, lengths = padded_batch(rng, [3, 4], 3)
        post = Tensor(lp, requires_grad=True)
        loss, res = ctc.ctc_loss_op(post, lengths, [(1,), (2,)], [False, False], BLANK)
        assert loss.item() == 0.0 and not loss.requires_grad
        assert np.all(res.grad == 0.0)

    def test_blank_in_target_rejected(self):
        lp = np.stack([uniform_posterior(3, 2).log_probs] * 2)
        with pytest.raises(ValueError, match="blank"):
            ctc.ctc_loss_op(Tensor(lp), [3, 3], [(1,), (BLANK,)], [True, True], BLANK)

    def test_real_frames_must_be_distributions(self):
        rng = np.random.default_rng(15)
        lp, lengths = padded_batch(rng, [3, 4], 3, t_max=5)
        lp[0, 4] += 1.0  # padding frame: not checked
        ctc.ctc_loss_op(Tensor(lp), lengths, [(1,), (2,)], [True, True], BLANK)
        lp[1, 3] += 1.0  # last real frame of row 1
        with pytest.raises(ValueError, match="distribution"):
            ctc.ctc_loss_op(Tensor(lp), lengths, [(1,), (2,)], [True, True], BLANK)


class TestGreedy:
    @staticmethod
    def peaked(path, vocab):
        probs = np.full((len(path), vocab), 0.01 / (vocab - 1))
        for t, k in enumerate(path):
            probs[t, k] = 0.99
        return np.log(probs)

    def test_composition_with_collapse(self):
        assert greedy_one(self.peaked([A, A, BLANK, B], 3)) == (A, B)

    def test_blank_everywhere(self):
        assert greedy_one(self.peaked([BLANK, BLANK, BLANK], 3)) == ()

    def test_tie_breaks_to_lowest_id(self):
        lp = np.full((1, 3), -np.log(3.0))
        assert greedy_one(lp) == ()  # blank is id 0

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_two_step_oracle(self, seed):
        rng = np.random.default_rng(seed)
        lp = random_posterior(rng, 4, 3)
        path = [int(np.argmax(row)) for row in lp]
        expected = []
        prev = None
        for tok in path:
            if tok != prev and tok != BLANK:
                expected.append(tok)
            prev = tok
        assert greedy_one(lp) == tuple(expected)

    def test_rows_alone_equal_rows_in_padded_batch(self):
        rng = np.random.default_rng(16)
        lengths = [3, 1, 5, 2]
        lp = np.full((len(lengths), 6, 3), np.nan)  # padding frames are never read
        for i, t in enumerate(lengths):
            lp[i, :t] = random_posterior(rng, t, 3)
        alone = [greedy_one(lp[i, :t]) for i, t in enumerate(lengths)]
        assert greedy_1best(lp, lengths, BLANK) == alone

    def test_real_frames_must_be_distributions(self):
        lp = np.stack([random_posterior(np.random.default_rng(17), 3, 3)] * 2)
        lp[1, 2] += 1.0
        greedy_1best(lp, [3, 2], BLANK)  # the bad frame is padding of row 1
        with pytest.raises(ValueError, match="distribution"):
            greedy_1best(lp, [3, 3], BLANK)


class TestPrefixBeam:
    @pytest.mark.parametrize("seed", range(15))
    def test_unbounded_beam_equals_exhaustive(self, seed):
        rng = np.random.default_rng(seed)
        t_frames = int(rng.integers(1, 4))
        vocab = int(rng.integers(2, 4))
        lp = random_posterior(rng, t_frames, vocab)
        nbest = search_one(lp, beam_width=UNPRUNED, n=50)
        ref = exhaustive_ctc_scores(lp, BLANK)
        ranked = sorted(ref.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0]))
        assert len(nbest) == len(ranked)
        for (seq, score), (ref_seq, ref_p) in zip(nbest.hypotheses, ranked):
            assert seq == ref_seq
            assert np.isclose(score, np.log(ref_p), rtol=1e-9)

    def test_single_frame_peaked(self):
        lp = np.log(np.array([[0.05, 0.9, 0.05]]))
        nbest = search_one(lp, beam_width=UNPRUNED, n=1)
        seq, score = nbest.hypotheses[0]
        assert seq == (1,)
        assert np.isclose(score, np.log(0.9), rtol=1e-12)

    def test_scores_exponentiate_to_at_most_one(self):
        rng = np.random.default_rng(5)
        lp = random_posterior(rng, 3, 3)
        nbest = search_one(lp, beam_width=UNPRUNED, n=100)
        total = sum(math.exp(s) for _, s in nbest.hypotheses)
        assert total <= 1.0 + 1e-9

    def test_incomplete_flag_when_few_prefixes(self):
        lp = np.log(np.array([[0.5, 0.5]]))  # only () and (1,) reachable
        nbest = search_one(lp, beam_width=UNPRUNED, n=10)
        assert nbest.incomplete
        assert len(nbest) == 2

    def test_beam_width_must_cover_n(self):
        lp = np.log(np.full((1, 2), 0.5))
        with pytest.raises(ValueError, match="beam_width"):
            search_one(lp, beam_width=1, n=2)

    def test_divergence_from_greedy_exists(self):
        # beam sums path mass per collapsed sequence while greedy follows the
        # single best path; random search must expose a disagreement, and on
        # it the beam's answer must match the exhaustive ranking
        rng = np.random.default_rng(2024)
        found = None
        for _ in range(300):
            t_frames = int(rng.integers(2, 4))
            vocab = int(rng.integers(2, 4))
            lp = random_posterior(rng, t_frames, vocab)
            g = greedy_one(lp)
            b = search_one(lp, beam_width=UNPRUNED, n=1).hypotheses[0][0]
            if g != b:
                found = (lp, g, b)
                break
        assert found is not None, "no divergence instance found"
        lp, g, b = found
        ref = exhaustive_ctc_scores(lp, BLANK)
        best = max(ref.items(), key=lambda kv: kv[1])[0]
        assert b == best
        assert g != best

    def test_canonical_divergence_instance(self):
        # blank slightly dominant per frame: greedy yields the empty string,
        # but the summed mass of [a] (3 paths) beats the all-blank path
        lp = np.log(np.array([[0.6, 0.4], [0.6, 0.4]]))
        assert greedy_one(lp) == ()
        nbest = search_one(lp, beam_width=UNPRUNED, n=2)
        assert nbest.hypotheses[0][0] == (1,)
        assert np.isclose(math.exp(nbest.hypotheses[0][1]), 0.64, rtol=1e-12)
        assert np.isclose(math.exp(nbest.hypotheses[1][1]), 0.36, rtol=1e-12)

    def test_pruned_beam_deterministic(self):
        rng = np.random.default_rng(6)
        lp = random_posterior(rng, 5, 4)
        a = search_one(lp, beam_width=3, n=3)
        b = search_one(lp, beam_width=3, n=3)
        assert a.hypotheses == b.hypotheses

    def test_format_nbest(self):
        lp = np.log(np.array([[0.05, 0.9, 0.05]]))
        nbest = search_one(lp, beam_width=UNPRUNED, n=2)
        text = ctc.format_nbest("utt1", nbest, ["<b>", "a", "b"])
        lines = text.splitlines()
        assert lines[0].startswith("utt1\t1\t")
        assert lines[0].endswith("\ta")


POSTERIOR_KINDS = ["random", "quantized", "uniform"]
BEAM_WIDTHS = [None, "n", 3, 5, 10]  # None: UNPRUNED


def _posterior_of_kind(rng, kind: str, t_frames: int, vocab: int) -> np.ndarray:
    if kind == "random":
        return random_posterior(rng, t_frames, vocab)
    if kind == "quantized":
        # integer logits: many equal scores, so pruning meets ties
        logits = rng.integers(0, 3, size=(t_frames, vocab)).astype(np.float64)
        return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    if kind == "sparse":
        # quantized, with some tokens of zero probability (log-prob -inf),
        # so rows of one batch keep different numbers of prefixes
        logits = rng.integers(0, 3, size=(t_frames, vocab)).astype(np.float64)
        zero = rng.random((t_frames, vocab)) < 0.4
        zero[np.arange(t_frames), logits.argmax(axis=1)] = False
        logits[zero] = -np.inf
        return logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
    return np.full((t_frames, vocab), -np.log(vocab))


def _assert_same_as_reference(post: CtcPosterior, beam_width, n: int) -> None:
    ours = search_one(post.log_probs, beam_width, n, post.blank_id)
    ref = prefix_beam_reference(post, beam_width, n)
    assert ours.sequences() == ref.sequences()
    # bit-equal scores, not merely close ones
    assert [s for _, s in ours.hypotheses] == [s for _, s in ref.hypotheses]
    assert ours.incomplete == ref.incomplete == (len(ours) < n)


class TestPrefixBeamMatchesReference:
    @pytest.mark.parametrize("beam_width", BEAM_WIDTHS)
    @pytest.mark.parametrize("kind", POSTERIOR_KINDS)
    def test_small_posteriors(self, kind, beam_width):
        rng = np.random.default_rng(
            [2, POSTERIOR_KINDS.index(kind), BEAM_WIDTHS.index(beam_width)]
        )
        for _ in range(40):
            t_frames = int(rng.integers(1, 9))
            vocab = int(rng.integers(2, 7))
            if beam_width is None:
                # unpruned search keeps every prefix: bound their number
                while (vocab - 1) ** t_frames > 2000:
                    t_frames -= 1
                width, n = UNPRUNED, int(rng.integers(1, 30))
            elif beam_width == "n":
                n = int(rng.integers(1, 6))
                width = n
            else:
                width, n = beam_width, int(rng.integers(1, beam_width + 1))
            lp = _posterior_of_kind(rng, kind, t_frames, vocab)
            post = CtcPosterior(lp, int(rng.integers(0, vocab)))
            _assert_same_as_reference(post, width, n)

    @pytest.mark.parametrize("beam_width,n", [(5, 3), (10, 10)])
    @pytest.mark.parametrize("kind", ["random", "quantized"])
    def test_desk_shaped_posteriors(self, kind, beam_width, n):
        rng = np.random.default_rng([3, beam_width, POSTERIOR_KINDS.index(kind)])
        for _ in range(20):
            lp = _posterior_of_kind(rng, kind, int(rng.integers(9, 17)), 20)
            _assert_same_as_reference(CtcPosterior(lp, BLANK), beam_width, n)



BATCH_KINDS = POSTERIOR_KINDS + ["sparse"]
BATCH_WIDTHS = ["n", 1, 2, 3, 5, 10, None]  # None: UNPRUNED


def _seeded_batches(kind: str, beam_width):
    """25 seeded padded batches of ``kind``: ``(log_probs, lengths, blank, width, n)``."""
    rng = np.random.default_rng([5, BATCH_KINDS.index(kind), BATCH_WIDTHS.index(beam_width)])
    for _ in range(25):
        rows = int(rng.integers(1, 6))
        vocab = int(rng.integers(2, 7))
        lengths = rng.integers(1, 9, size=rows)
        if beam_width is None:
            # unpruned search keeps every prefix: bound their number
            cap = 8
            while (vocab - 1) ** cap > 500:
                cap -= 1
            lengths = np.minimum(lengths, cap)
            width, n = UNPRUNED, int(rng.integers(1, 30))
        elif beam_width == "n":
            n = int(rng.integers(1, 6))
            width = n
        else:
            width, n = beam_width, int(rng.integers(1, beam_width + 1))
        blank = int(rng.integers(0, vocab))
        # up to two frames of padding past the longest row; never read
        lp = np.full((rows, int(lengths.max() + rng.integers(0, 3)), vocab), np.nan)
        for i, t in enumerate(lengths):
            lp[i, :t] = _posterior_of_kind(rng, kind, int(t), vocab)
        yield lp, lengths, blank, width, n


class TestBatchedPrefixBeam:
    """Every row of a padded batch gets the list the reference gives that row alone."""

    @pytest.mark.parametrize("beam_width", BATCH_WIDTHS)
    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_rows_match_reference_alone_and_in_batch(self, kind, beam_width):
        for lp, lengths, blank, width, n in _seeded_batches(kind, beam_width):
            batch = prefix_beam_nbest(lp, lengths, blank, width, n)
            assert len(batch) == len(lengths)
            assert batch.incomplete == sum(nbest.incomplete for nbest in batch)
            for i, t in enumerate(lengths):
                real = lp[i, :t]
                ref = prefix_beam_reference(CtcPosterior(real, blank), width, n)
                for ours in (batch[i], search_one(real, width, n, blank)):
                    # same sequences with bit-equal scores, not merely close ones
                    assert ours.hypotheses == ref.hypotheses
                    assert ours.incomplete == ref.incomplete == (len(ours) < n)

    @pytest.mark.parametrize("beam_width", BATCH_WIDTHS)
    @pytest.mark.parametrize("kind", BATCH_KINDS)
    def test_top_n_is_the_head_of_the_full_width_list(self, kind, beam_width):
        # n only cuts the final ranking, so lists of one width but different
        # n can share one search
        for lp, lengths, blank, width, _ in _seeded_batches(kind, beam_width):
            full = prefix_beam_nbest(lp, lengths, blank, width, width)
            longest = max(len(nbest) for nbest in full)
            for n in sorted({*range(1, min(width, longest + 1) + 1), width}):
                for cut, whole in zip(prefix_beam_nbest(lp, lengths, blank, width, n), full):
                    head = whole.hypotheses[:n]
                    assert cut.hypotheses == head  # bit-equal scores
                    assert cut.incomplete == (len(head) < n)

    def test_huge_beam_keeps_state_small(self):
        lp = random_posterior(np.random.default_rng(18), 3, 4)
        tracemalloc.start()
        try:
            nbest = search_one(lp, 10**9, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # bytes: sized by the live prefixes, not by the beam
        ref = prefix_beam_reference(CtcPosterior(lp, BLANK), 10**9, 5)
        assert nbest.hypotheses == ref.hypotheses

    def test_real_frames_must_be_distributions(self):
        lp = np.stack([random_posterior(np.random.default_rng(19), 3, 3)] * 2)
        lp[1, 2] += 1.0
        prefix_beam_nbest(lp, [3, 2], BLANK, 3, 3)  # the bad frame is padding of row 1
        with pytest.raises(ValueError, match="distribution"):
            prefix_beam_nbest(lp, [3, 3], BLANK, 3, 3)


@pytest.mark.parametrize("search", ["prefix_beam_nbest", "greedy_1best", "ctc_loss_op"])
def test_nan_in_a_real_frame_is_a_numeric_failure(search):
    """A NaN makes its row sum NaN, which no distribution check may let through."""
    lp = uniform_posterior(3, 3).log_probs[None].copy()
    lp[0, 1, 2] = np.nan
    call = {
        "prefix_beam_nbest": lambda: prefix_beam_nbest(lp, [3], BLANK, 3, 3),
        "greedy_1best": lambda: greedy_1best(lp, [3], BLANK),
        "ctc_loss_op": lambda: ctc.ctc_loss_op(Tensor(lp), [3], [(1,)], [True], BLANK),
    }[search]
    with pytest.raises(NumericError, match="non-finite posterior"):
        call()
