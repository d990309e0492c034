"""CTC from first principles: path sums, the loss, greedy vs beam search.

On tiny instances every frame path can be enumerated, which makes the
dynamic programs easy to trust: the forward-backward loss must equal the
brute-force path sum, and prefix beam search with no pruning must rank
collapsed sequences exactly like exhaustive grouping.
"""

import math
from itertools import product

import numpy as np

from ctcfuse.ctc import collapse, ctc_loss_op, greedy_1best, prefix_beam_nbest
from ctcfuse.tensor import Tensor

BLANK = 0


def one_utterance_loss(log_probs, target):
    """Loss and gradient of one utterance: the training loss on a batch of one."""
    _, res = ctc_loss_op(Tensor(log_probs[None]), [len(log_probs)], [target], BLANK)
    return res.losses[0], res.grad[0]


print("== collapse: merge repeats, then drop blanks ==")
for path in ([1, 1, 0, 2], [0, 0], [1, 0, 1]):
    print(f"collapse({path}) -> {collapse(path, BLANK)}")

print()
print("== the classic two-frame example ==")
# two frames, two symbols {blank, a}, all probabilities one half:
# paths aa, a-, -a collapse to [a]  ->  P = 3/4
loss, _ = one_utterance_loss(np.full((2, 2), math.log(0.5)), (1,))
print(f"loss = {loss:.6f}, -log(0.75) = {-math.log(0.75):.6f}")

print()
print("== loss equals the exhaustive path sum on a random instance ==")
rng = np.random.default_rng(3)
logits = rng.normal(size=(4, 3))
lp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
target = (1, 2)
loss, grad = one_utterance_loss(lp, target)

total = 0.0
for path in product(range(3), repeat=4):
    if collapse(path, BLANK) == target:
        total += math.exp(sum(lp[t, k] for t, k in enumerate(path)))
print(f"forward-backward: {loss:.10f}")
print(f"enumeration:      {-math.log(total):.10f}")

print()
print("== greedy follows the best path; beam sums over paths ==")
# blank wins every frame individually, but three paths collapse to [a]
# the searches take a padded batch and its frame counts; here a batch of one
lp = np.log(np.array([[[0.6, 0.4], [0.6, 0.4]]]))
print(f"greedy 1-best: {greedy_1best(lp, [2], BLANK)[0]}  (best single path is blank-blank)")
# two frames of two classes reach at most 2 ** 2 prefixes: a beam of 4 prunes nothing
nbest = prefix_beam_nbest(lp, [2], BLANK, beam_width=4, n=3)[0]
for rank, (seq, score) in enumerate(nbest.hypotheses, 1):
    print(f"beam rank {rank}: {seq} with probability {math.exp(score):.3f}")
print("the summed mass of [a] (0.64) beats the empty string (0.36)")

print()
print("== gradient sanity: rows of d(loss)/d(log p) sum to -1 ==")
print(np.round(grad.sum(axis=1), 12))
