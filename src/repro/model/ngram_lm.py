"""Interpolated n-gram language model — the pretraining (PT) stage.

Trained by next-token counting over the Verilog-PT dataset (clean and
failing code alike, as in the paper), the model serves two purposes:

- line surprisal for the downstream ranker: a mutated line usually has a
  higher per-token negative log-likelihood than the surrounding healthy
  code, giving the SFT features their strongest localization signal — the
  concrete mechanism behind the paper's claim that continual pretraining
  boosts downstream debugging performance;
- a sanity metric (perplexity) used by the PT ablation bench.

Trigram/bigram/unigram interpolation with fixed weights; unseen tokens
fall through to a uniform floor over the observed vocabulary.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, Iterable, List

from repro.model.tokenizer import BOS, EOS, tokenize_line, tokenize_text

# Interpolation weights: 4-gram, trigram, bigram, unigram.  The 4-gram
# level is load-bearing: it is what lets the model connect a line's target
# identifier to the operator used later in the line (e.g. 'lt_flag <= a <'
# vs 'lt_flag <= a >'), which trigram context is one token too short for.
_LAMBDAS = (0.35, 0.30, 0.23, 0.12)

#: Attributes :meth:`NgramLM._refresh_totals` derives from the counts.
_DERIVED = frozenset({"_bigram_totals", "_trigram_totals", "_fourgram_totals",
                      "_unigram_total", "_floor"})


class NgramLM:
    """Counting language model over per-line token streams."""

    def __init__(self):
        self.unigrams: Counter = Counter()
        self.bigrams: Dict[str, Counter] = defaultdict(Counter)
        self.trigrams: Dict[tuple, Counter] = defaultdict(Counter)
        self.fourgrams: Dict[tuple, Counter] = defaultdict(Counter)
        self.total_tokens = 0
        self.trained = False
        self._refresh_totals()

    # -- training -------------------------------------------------------------

    def train_texts(self, texts: Iterable[str]) -> None:
        """Accumulate counts from raw source texts (one call per dataset)."""
        for text in texts:
            for tokens in tokenize_text(text):
                self._count_line(tokens)
        self.trained = True
        self._refresh_totals()

    def _refresh_totals(self) -> None:
        """Precompute what :meth:`token_prob` divides by: each context's
        count total and the floor.  Derived from the counts, so they stay
        out of the pickle (the model digest hashes the pickle) and are
        rebuilt on unpickling."""
        self._bigram_totals = {w1: sum(counter.values())
                               for w1, counter in self.bigrams.items()}
        self._trigram_totals = {ctx: sum(counter.values())
                                for ctx, counter in self.trigrams.items()}
        self._fourgram_totals = {ctx: sum(counter.values())
                                 for ctx, counter in self.fourgrams.items()}
        self._unigram_total = max(self.total_tokens, 1)
        self._floor = 1.0 / (self.vocab_size * 10)

    def __getstate__(self) -> dict:
        return {name: value for name, value in self.__dict__.items()
                if name not in _DERIVED}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._refresh_totals()

    def _count_line(self, tokens: List[str]) -> None:
        stream = [BOS, BOS, BOS] + tokens + [EOS]
        for i in range(3, len(stream)):
            w3, w2, w1, w0 = stream[i - 3], stream[i - 2], stream[i - 1], stream[i]
            self.unigrams[w0] += 1
            self.bigrams[w1][w0] += 1
            self.trigrams[(w2, w1)][w0] += 1
            self.fourgrams[(w3, w2, w1)][w0] += 1
            self.total_tokens += 1

    # -- scoring -----------------------------------------------------------------

    @property
    def vocab_size(self) -> int:
        return max(len(self.unigrams), 1)

    def token_prob(self, w3: str, w2: str, w1: str, w0: str) -> float:
        p_uni = self.unigrams.get(w0, 0) / self._unigram_total
        bi = self.bigrams.get(w1)
        p_bi = bi.get(w0, 0) / self._bigram_totals[w1] if bi else 0.0
        tri = self.trigrams.get((w2, w1))
        p_tri = (tri.get(w0, 0) / self._trigram_totals[(w2, w1)]
                 if tri else 0.0)
        four = self.fourgrams.get((w3, w2, w1))
        p_four = (four.get(w0, 0) / self._fourgram_totals[(w3, w2, w1)]
                  if four else 0.0)
        l4, l3, l2, l1 = _LAMBDAS
        p = l4 * p_four + l3 * p_tri + l2 * p_bi + l1 * p_uni
        return max(p, self._floor)

    def line_surprisal(self, line: str) -> float:
        """Mean negative log2 probability per token of one source line.

        Untrained models return a constant (uninformative) score — the
        "base model without PT" configuration in the ablations.
        """
        tokens = tokenize_line(line.strip())
        if not tokens or not self.trained:
            return 10.0
        stream = [BOS, BOS, BOS] + tokens + [EOS]
        total = 0.0
        count = 0
        for i in range(3, len(stream)):
            p = self.token_prob(stream[i - 3], stream[i - 2], stream[i - 1],
                                stream[i])
            total += -math.log2(p)
            count += 1
        return total / max(count, 1)

    def perplexity(self, text: str) -> float:
        """Corpus-level perplexity of a source text."""
        lines = tokenize_text(text)
        if not lines:
            return float("inf")
        total = 0.0
        count = 0
        for tokens in lines:
            stream = [BOS, BOS, BOS] + tokens + [EOS]
            for i in range(3, len(stream)):
                p = self.token_prob(stream[i - 3], stream[i - 2],
                                    stream[i - 1], stream[i])
                total += -math.log2(p)
                count += 1
        return 2 ** (total / max(count, 1))
