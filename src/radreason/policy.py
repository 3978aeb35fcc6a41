"""Tabular softmax sequence policy with exact log-probs and analytic gradients.

Contexts (prompt key + recent output tokens) are hashed into a fixed number
of logit-table rows, so every objective here admits closed-form gradients
checkable against finite differences, and output spaces stay enumerable.

Sequences are read as arrays: a window table (`Windows`) gives the row of
each context the prompts' sequences reach, hashed once. All the sequences
of a GRPO step are drawn, scored and differentiated together (`Tokens`),
one token position at a time; all the targets of an SFT step are scored
and differentiated the same way. The uniforms a draw inverts come from
`seeded_uniforms`, NumPy's seeded streams computed for many seeds at once.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np


# NumPy's SeedSequence hash (pool of 4 uint32 words) and PCG64 constants.
# NEP 19 keeps the streams of seeded bit generators stable across NumPy
# versions; the tests compare every bit with default_rng(...).random().
_M32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01_F9DD), np.uint32(0x4973_F715)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
# the multiplier's 64-bit halves, and the low half's 32-bit limbs
_PCG_HI, _PCG_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & (2**64 - 1))
_PCG_LO_0, _PCG_LO_1 = np.uint64(int(_PCG_LO) & _M32), np.uint64(int(_PCG_LO) >> 32)


def _entropy_words(entropies: Sequence[Sequence[int]]) -> dict[int, tuple]:
    """The uint32 words SeedSequence assembles from each entropy, grouped by
    word count k: {k: (rows, (len(rows), k) words)}. An item's words are its
    base-2**32 digits, least significant first (0 is one word 0); an
    entropy's words are its items' in order."""
    lens = np.fromiter(map(len, entropies), np.intp, len(entropies))
    flat = list(chain.from_iterable(entropies))
    if flat and min(flat) < 0:
        raise ValueError("expected non-negative integer")
    # items past uint64 stay Python ints
    wide = bool(flat) and max(flat) > 2**64 - 1
    rest = np.array(flat, dtype=object if wide else np.uint64)
    digits = [rest & _M32]
    rest >>= 32
    while rest.any():
        digits.append(rest & _M32)
        rest >>= 32
    digits = np.stack(digits, axis=1).astype(np.uint32)  # (items, max digits)
    counts = np.maximum((digits != 0) * np.arange(1, digits.shape[1] + 1), 1).max(axis=1)
    words = digits[np.arange(digits.shape[1]) < counts[:, None]]
    word_ends = np.concatenate(([0], np.cumsum(counts)))
    item_ends = np.cumsum(lens)
    starts = word_ends[item_ends - lens]
    row_words = word_ends[item_ends] - starts
    by_count = {}
    # sorted(set(...)), not np.unique: np.unique's first call imports numpy.ma
    for k in sorted(set(row_words.tolist())):
        rows = np.flatnonzero(row_words == k)
        by_count[k] = (rows, words[starts[rows, None] + np.arange(k)])
    return by_count


def _pcg64_seed(words: np.ndarray) -> tuple[np.ndarray, ...]:
    """SeedSequence(entropy).generate_state(4, uint64) for every row of
    entropy words at once: the pool hash, the mix, the state hash."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> 16)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> 16)

    n, k = words.shape
    pool = [
        hashmix(words[:, i] if i < k else np.zeros(n, dtype=np.uint32))
        for i in range(_POOL_SIZE)
    ]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, k):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _M32
        value = value * np.uint32(hash_const)
        state.append((value ^ (value >> 16)).astype(np.uint64))
    # uint32 pairs read as little-endian uint64s
    return tuple(state[2 * j] | (state[2 * j + 1] << 32) for j in range(4))


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * multiplier + inc mod 2**128, on 64-bit halves;
    the high half of lo * multiplier is summed from 32-bit limbs."""
    lo_0, lo_1 = lo & _M32, lo >> 32
    p01, p10 = lo_0 * _PCG_LO_1, lo_1 * _PCG_LO_0
    carry = ((lo_0 * _PCG_LO_0) >> 32) + (p01 & _M32) + (p10 & _M32)
    mul_hi = lo_1 * _PCG_LO_1 + (p01 >> 32) + (p10 >> 32) + (carry >> 32)
    new_lo = lo * _PCG_LO + inc_lo
    new_hi = mul_hi + hi * _PCG_LO + lo * _PCG_HI + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _pcg64_uniforms(words: np.ndarray, length: int) -> np.ndarray:
    """default_rng(entropy).random(length) for every row of entropy words."""
    seed_hi, seed_lo, inc_hi, inc_lo = _pcg64_seed(words)
    # pcg64_set_seed: inc = initseq << 1 | 1; state = 0, step, += seed, step
    inc_hi, inc_lo = (inc_hi << 1) | (inc_lo >> 63), (inc_lo << 1) | 1
    lo = inc_lo + seed_lo
    hi = inc_hi + seed_hi + (lo < seed_lo)
    hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
    out = np.empty((len(words), length))
    for t in range(length):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output, then random()'s 53-bit double
        x, rot = hi ^ lo, hi >> 58
        x = (x >> rot) | (x << ((64 - rot) & 63))
        out[:, t] = (x >> 11) * (1.0 / 2**53)
    return out


def seeded_uniforms(entropies: Sequence[Sequence[int]], length: int) -> np.ndarray:
    """Row r is np.random.default_rng(entropies[r]).random(length), bit for
    bit, computed for every row together: SeedSequence's hash and PCG64's
    steps run as uint32/uint64 array operations, not one generator a row.
    An entropy is a sequence of non-negative ints, as SeedSequence takes."""
    out = np.empty((len(entropies), length))
    for rows, words in _entropy_words(entropies).values():
        out[rows] = _pcg64_uniforms(words, length)
    return out


def group_uniforms(seeds: Sequence[int], group_size: int, length: int) -> np.ndarray:
    """The uniforms of group_size samples for each seed, the groups one
    after another: sample i of the group seeded s reads the row of entropy
    (s, i)."""
    return seeded_uniforms([(s, i) for s in seeds for i in range(group_size)], length)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis: one row, or every row of a table."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _entropy_with_grad(lp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy of each row of log-probs, and its gradient in that row's logits."""
    p = np.exp(lp)
    h = -(p * lp).sum(axis=-1)
    return h, -p * (lp + h[..., None])


class Tokens(NamedTuple):
    """Token sequences as arrays padded to the longest: at each position the
    context row read and the vocabulary index taken, and whether a token is
    there. The rows depend on the prompts and the tokens, not on theta."""

    rows: np.ndarray  # (N, T) intp
    idxs: np.ndarray  # (N, T) intp
    mask: np.ndarray  # (N, T) bool


class Windows:
    """The context rows a set of prompts' sequences read, hashed as reached.

    The row of a context (prompt, last context_size tokens) is the CRC-32
    of the prompt, then the window, joined by unit separators, modulo
    n_contexts. A sequence's state is its window as base-(V+1) digits
    (token index + 1; 0 before the first token), so `advance` moves it on
    by a token and `rows_at` gives the row each sequence reads next. A row
    is hashed the first time its (prompt, window) pair is reached and then
    memoised, so a table costs what its sequences visit, not V^context_size
    per prompt. The rows depend on the prompts and on the policy's
    vocabulary, context_size and n_contexts, not on theta, so one table
    serves every policy value of a training run.
    """

    def __init__(self, policy: ToyPolicy, prompt_keys: Sequence[str]):
        self.prompt_keys = tuple(prompt_keys)
        self.layout = (policy.vocab, policy.context_size, policy.n_contexts)
        self.token_index = policy.token_index
        self.base = len(policy.vocab) + 1
        self.span = self.base**policy.context_size
        # states, and the memo keys state * n_prompts + prompt, stay in intp
        if self.span * self.base * max(len(self.prompt_keys), 1) > np.iinfo(np.intp).max:
            raise ValueError("too many windows to index: vocabulary or context_size")
        # the CRC-32 of each prompt's part of its keys, the prompt and a separator
        self._crcs = [
            zlib.crc32(key.encode("utf-8") + b"\x1f") for key in self.prompt_keys
        ]
        self._memo: dict[int, int] = {}  # row by key state * n_prompts + prompt

    def advance(self, state: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return (state * self.base + idx + 1) % self.span

    def _hash(self, key: int) -> int:
        state, prompt_id = divmod(key, len(self._crcs))
        vocab, k, n_contexts = self.layout
        window = []
        for _ in range(k):
            state, digit = divmod(state, self.base)
            if digit:
                window.append(vocab[digit - 1])
        joined = "\x1f".join(reversed(window)).encode("utf-8")
        return zlib.crc32(joined, self._crcs[prompt_id]) % n_contexts

    def rows_at(self, prompt_ids: np.ndarray, state: np.ndarray) -> np.ndarray:
        """The row sequence s reads next, at state[s] under prompt prompt_ids[s]."""
        memo = self._memo
        keys = (state * len(self._crcs) + prompt_ids).tolist()
        for key in set(keys).difference(memo):
            memo[key] = self._hash(key)
        return np.fromiter(map(memo.__getitem__, keys), np.intp, len(keys))

    def encode(
        self, outputs: Sequence[Sequence[str]], prompt_ids: np.ndarray
    ) -> Tokens:
        """Given token sequences, sequence s read under prompt prompt_ids[s]."""
        n, t_max = len(outputs), max(map(len, outputs), default=0)
        idxs = np.zeros((n, t_max), dtype=np.intp)
        mask = np.zeros((n, t_max), dtype=bool)
        for s, out in enumerate(outputs):
            idxs[s, : len(out)] = [self.token_index(tok) for tok in out]
            mask[s, : len(out)] = True
        rows = np.zeros_like(idxs)
        state = np.zeros(n, dtype=np.intp)
        for t in range(t_max):
            live = mask[:, t]
            rows[live, t] = self.rows_at(prompt_ids[live], state[live])
            state = self.advance(state, idxs[:, t])
        return Tokens(rows, idxs, mask)


# Generator.choice(p=...) rejects rows whose sum is further than this from 1
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass(frozen=True, eq=False)
class ToyPolicy:
    """Logit table over hashed contexts, and the distribution it defines: an
    immutable value. Building one copies theta into a read-only array, and
    `with_theta` returns the policy at other parameters, so GRPO's old and
    reference policies are just earlier values.

    The log-softmax of every context row is taken in one vectorised op on
    first use, and kept. The first draw builds the row CDFs and checks once
    that every row is a distribution, the check Generator.choice(p=row)
    makes on each draw. Sampling, log-probs and gradients all read the same
    tables.
    """

    vocab: tuple[str, ...]
    theta: np.ndarray  # (n_contexts, V) logit table, read-only
    context_size: int = 2
    max_length: int = 16
    eos_token: str = "<eos>"

    def __post_init__(self) -> None:
        theta = np.array(self.theta, dtype=float)
        theta.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        if self.eos_token not in self.vocab:
            raise ValueError("vocabulary must contain the end token")
        if theta.ndim != 2 or theta.shape[1] != len(self.vocab):
            raise ValueError("theta width must equal vocabulary size")
        if self.context_size < 1:
            raise ValueError("context_size must be >= 1")

    @classmethod
    def uniform(cls, vocab: Sequence[str], n_contexts: int = 64, **layout) -> "ToyPolicy":
        """The policy with all-zero logits; `layout` sets any of
        `context_size`, `max_length` and `eos_token`."""
        return cls(vocab=tuple(vocab), theta=np.zeros((n_contexts, len(vocab))), **layout)

    def with_theta(self, theta: np.ndarray) -> "ToyPolicy":
        """The same policy at parameters `theta` (copied)."""
        return replace(self, theta=theta)

    @property
    def n_contexts(self) -> int:
        return self.theta.shape[0]

    @cached_property
    def _index(self) -> dict[str, int]:
        return {tok: i for i, tok in enumerate(self.vocab)}

    def token_index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ValueError(f"token {token!r} is outside the vocabulary")

    @cached_property
    def log_probs(self) -> np.ndarray:
        log_probs = _log_softmax(self.theta)
        log_probs.flags.writeable = False
        return log_probs

    @cached_property
    def probs(self) -> np.ndarray:
        probs = np.exp(self.log_probs)
        probs.flags.writeable = False
        return probs

    @cached_property
    def _cdf(self) -> np.ndarray:
        ok = np.all(self.probs >= 0, axis=1) & (
            np.abs(self.probs.sum(axis=1) - 1.0) <= _SUM_ATOL
        )
        if not ok.all():
            raise ValueError(
                f"context row {int(np.argmin(ok))} is not a probability distribution"
            )
        # the cumsum and normalisation Generator.choice(p=row) uses
        cdf = np.cumsum(self.probs, axis=1)
        cdf /= cdf[:, -1:]
        return cdf

    def sample_tokens(
        self, windows: Windows, prompt_ids: np.ndarray, uniforms: np.ndarray
    ) -> Tokens:
        """Seeded ancestral samples, advanced together: sequence s reads the
        rows of prompt prompt_ids[s] and takes its t-th token by inverting
        the row CDF at uniforms[s, t]. The count of CDF entries <= u is
        bisect_right, the draw rng.choice(V, p=row) makes. A sequence ends
        at the end token or after uniforms.shape[1] tokens."""
        if windows.layout != (self.vocab, self.context_size, self.n_contexts):
            raise ValueError("window table was built for another policy layout")
        cdf = self._cdf
        eos = self.token_index(self.eos_token)
        n, length = uniforms.shape
        rows = np.zeros((n, length), dtype=np.intp)
        idxs = np.zeros((n, length), dtype=np.intp)
        mask = np.zeros((n, length), dtype=bool)
        state = np.zeros(n, dtype=np.intp)
        alive = np.ones(n, dtype=bool)
        t = 0
        while t < length and alive.any():
            # ended sequences read no row: their draws are masked out
            row = np.zeros(n, dtype=np.intp)
            row[alive] = windows.rows_at(prompt_ids[alive], state[alive])
            idx = (cdf[row] <= uniforms[:, t, None]).sum(axis=1)
            rows[:, t], idxs[:, t], mask[:, t] = row, idx, alive
            alive &= idx != eos
            state = windows.advance(state, idx)
            t += 1
        return Tokens(rows[:, :t], idxs[:, :t], mask[:, :t])

    def sequence_log_probs(self, tokens: Tokens) -> np.ndarray:
        """Each sequence's log-prob, a running sum in token order: it equals
        adding the token log-probs one at a time."""
        lp = np.where(tokens.mask, self.log_probs[tokens.rows, tokens.idxs], 0.0)
        return np.cumsum(lp, axis=1)[:, -1] if lp.shape[1] else np.zeros(len(lp))

    def scatter_grad(self, tokens: Tokens, weights: np.ndarray) -> np.ndarray:
        """sum_s weights[s] * d log p(sequence s) / d theta, in one scatter:
        each token adds its sequence's weight at (row, index) and takes
        weight x the row's probs off that row."""
        n_contexts, V = self.probs.shape
        rows = tokens.rows[tokens.mask]
        w = np.broadcast_to(weights[:, None], tokens.mask.shape)[tokens.mask]
        cells = np.bincount(
            rows * V + tokens.idxs[tokens.mask], weights=w, minlength=n_contexts * V
        ).reshape(n_contexts, V)
        counts = np.bincount(rows, weights=w, minlength=n_contexts)
        return cells - counts[:, None] * self.probs

    def decode(self, tokens: Tokens) -> tuple[tuple[str, ...], ...]:
        vocab = self.vocab
        return tuple(
            tuple(vocab[i] for i in row[:n])
            for row, n in zip(tokens.idxs.tolist(), tokens.mask.sum(axis=1).tolist())
        )

    def _encode_one(self, prompt_key: str, tokens: Sequence[str]) -> Tokens:
        return Windows(self, (prompt_key,)).encode((tokens,), np.zeros(1, dtype=np.intp))

    def log_prob(self, prompt_key: str, tokens: Sequence[str]) -> float:
        return float(self.sequence_log_probs(self._encode_one(prompt_key, tokens))[0])

    def log_prob_with_grad(
        self, prompt_key: str, tokens: Sequence[str]
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Exact log-prob, the rows of theta it depends on (ascending) and its
        gradient in them; the gradient is zero in every other row."""
        encoded = self._encode_one(prompt_key, tokens)
        grad = self.scatter_grad(encoded, np.ones(1))
        rows = np.unique(encoded.rows[encoded.mask])
        return float(self.sequence_log_probs(encoded)[0]), rows, grad[rows]

    def sample(self, prompt_key: str, rng: np.random.Generator) -> tuple[str, ...]:
        """Seeded ancestral sampling, terminated by the end token or
        max_length. Its uniforms are drawn at once, rng.random(max_length),
        so rng moves on by max_length floats whatever the sample's length."""
        encoded = self.sample_tokens(
            Windows(self, (prompt_key,)),
            np.zeros(1, dtype=np.intp),
            rng.random((1, self.max_length)),
        )
        return self.decode(encoded)[0]


@dataclass(frozen=True)
class SftBatch:
    prompt_key: str
    target: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.target:
            raise ValueError("sft target must be non-empty")


def sft_loss(policy: ToyPolicy, batch: SftBatch) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of the target, with its exact gradient in
    theta: one target of the sequence path `train_sft` takes."""
    logp, rows, grad_rows = policy.log_prob_with_grad(batch.prompt_key, batch.target)
    grad = np.zeros_like(policy.theta)
    grad[rows] = -grad_rows
    return -logp, grad


@dataclass
class GrpoConfig:
    """The GRPO stage of `train-toy`; a config file's `grpo` section
    overrides fields. Learning rate and entropy weight are rescaled for the
    tabular policy (the nominal 5e-7 and 1e-4 target a large neural one)."""

    group_size: int = 8
    clip_eps: float = 0.2
    kl_coef: float = 1e-4
    entropy_coef: float = 0.01
    learning_rate: float = 3.0
    steps: int = 200
    seed: int = 0
    clip_mode: str = "standard"  # "standard" | "literal" (objective as typeset)
    kl_estimator: str = "log_ratio"  # "log_ratio" | "k3"

    def __post_init__(self) -> None:
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip_eps must lie in (0, 1)")
        # written `not x >= 0` so that NaN is refused too
        if not self.kl_coef >= 0:
            raise ValueError("kl_coef must be non-negative")
        if not self.entropy_coef >= 0:
            raise ValueError("entropy_coef must be >= 0")
        if not self.learning_rate > 0:
            raise ValueError("learning_rate must be > 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.clip_mode not in ("standard", "literal"):
            raise ValueError(f"clip_mode must be 'standard' or 'literal', got {self.clip_mode!r}")
        if self.kl_estimator not in ("log_ratio", "k3"):
            raise ValueError(
                f"kl_estimator must be 'log_ratio' or 'k3', got {self.kl_estimator!r}"
            )


@dataclass(frozen=True)
class GroupBatch:
    """Sampled outputs in groups, one group per prompt of `windows`, the
    groups stored one after another."""

    windows: Windows
    outputs: tuple[tuple[str, ...], ...]
    logp_old: np.ndarray
    tokens: Tokens  # the outputs as arrays, as sample_group records them

    def __post_init__(self) -> None:
        if len(self.outputs) != len(self.logp_old):
            raise ValueError("outputs and logp_old must have equal length")
        n_groups = len(self.windows.prompt_keys)
        if not n_groups or len(self.outputs) % n_groups:
            raise ValueError("outputs must split into one equal group per prompt")
        if len(self.tokens.rows) != len(self.outputs):
            raise ValueError("outputs and tokens must have equal length")


def sample_group(
    policy: ToyPolicy, prompts: str | Windows, uniforms: np.ndarray
) -> GroupBatch:
    """One group of samples from `policy`, GRPO's old policy, for every
    prompt of a Windows table at once; a prompt key is a one-prompt table.
    `uniforms` holds one row per sample, the groups one after another (see
    `group_uniforms`), so its row count fixes the group size; sample s
    inverts the row CDFs at uniforms[s] and ends at the end token or after
    uniforms.shape[1] tokens. Each sample's log-prob under `policy` goes to
    logp_old for the importance ratio, and its tokens to `tokens`."""
    windows = Windows(policy, (prompts,)) if isinstance(prompts, str) else prompts
    n_groups = len(windows.prompt_keys)
    if not n_groups or len(uniforms) % n_groups:
        raise ValueError("sample_group needs one equal group of uniforms per prompt")
    group_size = len(uniforms) // n_groups
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    tokens = policy.sample_tokens(
        windows, np.repeat(np.arange(n_groups), group_size), uniforms
    )
    return GroupBatch(
        windows=windows,
        outputs=policy.decode(tokens),
        logp_old=policy.sequence_log_probs(tokens),
        tokens=tokens,
    )


def advantages(rewards: Sequence[float] | np.ndarray) -> np.ndarray:
    """Group-normalized advantages: (r - mean) / population std over the
    last axis, so a 2-D array holds one group per row; an all-equal group
    yields all zeros rather than dividing by zero.

    The deviations are scaled to max |d| = 1 and centred again before the
    division, so groups whose spread is a few ulps, or whose variance is
    subnormal, still standardise to mean 0 and std 1."""
    r = np.asarray(rewards, dtype=float)
    if r.ndim == 0 or r.shape[-1] < 2:
        raise ValueError("advantages need a group of at least 2 rewards")
    flat = r.max(axis=-1, keepdims=True) == r.min(axis=-1, keepdims=True)
    d = r - r.mean(axis=-1, keepdims=True)
    with np.errstate(invalid="ignore"):  # 0/0 in all-equal groups, zeroed below
        d /= np.abs(d).max(axis=-1, keepdims=True)
        d -= d.mean(axis=-1, keepdims=True)
        return np.where(flat, 0.0, d / d.std(axis=-1, keepdims=True))


def kl_penalty(
    logp_old: float | np.ndarray,
    logp_new: float | np.ndarray,
    estimator: str,
) -> float | np.ndarray:
    """Single-sample KL(old || new) estimator, elementwise over arrays:
    "log_ratio" is the plain log ratio, "k3" the non-negative variant
    q - 1 - log q."""
    if estimator == "log_ratio":
        return logp_old - logp_new
    if estimator == "k3":
        log_q = logp_new - logp_old
        return np.expm1(log_q) - log_q
    raise ValueError(f"unknown kl estimator {estimator!r}")


def grpo_objective(
    policy: ToyPolicy,
    batch: GroupBatch,
    advantages: np.ndarray,
    cfg: GrpoConfig,
) -> tuple[float, np.ndarray]:
    """Clipped-surrogate objective with KL penalty and entropy bonus, the
    mean over the batch's groups, given each output's advantage; returns
    the value and its exact gradient in `policy`'s theta. A group's
    objective is the mean over its outputs, plus the mean entropy of the
    rows that group visits; the gradient is non-zero only in visited rows."""
    if len(batch.outputs) != len(advantages):
        raise ValueError("mismatched group size")
    n_groups = len(batch.windows.prompt_keys)
    G = len(batch.outputs) // n_groups
    tokens = batch.tokens
    a = np.asarray(advantages, dtype=float)
    logp_old = np.asarray(batch.logp_old, dtype=float)
    logp_new = policy.sequence_log_probs(tokens)
    rho = np.exp(logp_new - logp_old)
    eps = cfg.clip_eps
    if cfg.clip_mode == "standard":
        unclipped = rho * a
        clipped = np.clip(rho, 1 - eps, 1 + eps) * a
        surr = np.minimum(unclipped, clipped)
        # gradient flows through whichever branch attains the min; the
        # clipped branch has zero slope outside the trust region
        active = (unclipped <= clipped) | ((1 - eps < rho) & (rho < 1 + eps))
    else:  # literal: min over the three scalars, then times A
        surr = np.minimum(rho, 1 - eps) * a  # min(rho, 1-eps, 1+eps)
        active = rho < 1 - eps
    kl = kl_penalty(logp_old, logp_new, cfg.kl_estimator)
    # d kl / d logp_new: -1 for the log ratio, q - 1 for k3
    gkl = -1.0 if cfg.kl_estimator == "log_ratio" else rho - 1.0
    # each output's share of the step: 1/G of its group, 1/n_groups of that
    scale = 1.0 / (G * n_groups)
    value = float((surr - cfg.kl_coef * kl).sum()) * scale
    weights = (np.where(active, a * rho, 0.0) - cfg.kl_coef * gkl) * scale
    grad = policy.scatter_grad(tokens, weights)
    if cfg.entropy_coef > 0:
        # each group weighs the rows it visits equally
        group = np.broadcast_to(
            np.repeat(np.arange(n_groups), G)[:, None], tokens.mask.shape
        )
        visited = np.zeros((n_groups, policy.n_contexts))
        visited[group[tokens.mask], tokens.rows[tokens.mask]] = 1.0
        share = (visited / np.maximum(visited.sum(axis=1, keepdims=True), 1.0)).sum(
            axis=0
        ) / n_groups
        rows = np.flatnonzero(share)
        h, gh = _entropy_with_grad(policy.log_probs[rows])
        value += cfg.entropy_coef * float(share[rows] @ h)
        grad[rows] += cfg.entropy_coef * share[rows, None] * gh
    return value, grad
