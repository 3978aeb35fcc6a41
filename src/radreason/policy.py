"""Tabular softmax sequence policy with exact log-probs and analytic gradients.

Contexts (prompt key + recent output tokens) are hashed into a fixed number
of logit-table rows, so every objective here admits closed-form gradients
checkable against finite differences, and output spaces stay enumerable.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis: one row, or every row of a table."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _entropy_with_grad(lp: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Entropy of each row of log-probs, and its gradient in that row's logits."""
    p = np.exp(lp)
    h = -(p * lp).sum(axis=-1)
    return h, -p * (lp + h[..., None])


def _prompt_crc(prompt_key: str) -> int:
    """CRC-32 of the prompt part of every context key of one sequence."""
    return zlib.crc32(prompt_key.encode("utf-8") + b"\x1f")


def _context_bucket(
    prompt_crc: int, prev_tokens: Sequence[str], context_size: int, n_contexts: int
) -> int:
    """Row of the context (prompt, last context_size tokens): the CRC-32 of
    prompt, then the window, joined by unit separators."""
    window = tuple(prev_tokens)[-context_size:]
    return zlib.crc32("\x1f".join(window).encode("utf-8"), prompt_crc) % n_contexts


class TokenPath(NamedTuple):
    """Where a token sequence reads the policy: the context row and the
    vocabulary index of each token. It depends on the prompt and the tokens,
    not on theta."""

    rows: tuple[int, ...]
    idxs: tuple[int, ...]


# Generator.choice(p=...) rejects rows whose sum is further than this from 1
_SUM_ATOL = float(np.sqrt(np.finfo(np.float64).eps))


@dataclass
class ToyPolicy:
    """Logit table over hashed contexts: the parameters GRPO and SFT update.

    Sampling and sequence log-probs read a PolicySnapshot, the frozen
    distribution at the current theta; `sample`, `log_prob` and
    `log_prob_with_grad` here take a fresh one on every call, so they always
    see theta as it is now, in-place changes included. Callers that read
    one distribution many times (a GRPO step) take the snapshot once.
    """

    vocab: tuple[str, ...]
    theta: np.ndarray  # (n_contexts, V) logit table
    context_size: int = 2
    max_length: int = 16
    eos_token: str = "<eos>"
    _index: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.eos_token not in self.vocab:
            raise ValueError("vocabulary must contain the end token")
        if self.theta.shape[1] != len(self.vocab):
            raise ValueError("theta width must equal vocabulary size")
        self._index = {tok: i for i, tok in enumerate(self.vocab)}

    @classmethod
    def uniform(
        cls,
        vocab: Sequence[str],
        n_contexts: int = 64,
        context_size: int = 2,
        max_length: int = 16,
        eos_token: str = "<eos>",
    ) -> "ToyPolicy":
        return cls(
            vocab=tuple(vocab),
            theta=np.zeros((n_contexts, len(vocab))),
            context_size=context_size,
            max_length=max_length,
            eos_token=eos_token,
        )

    @property
    def n_contexts(self) -> int:
        return self.theta.shape[0]

    def copy(self) -> "ToyPolicy":
        return ToyPolicy(
            vocab=self.vocab,
            theta=self.theta.copy(),
            context_size=self.context_size,
            max_length=self.max_length,
            eos_token=self.eos_token,
        )

    def snapshot(self) -> "PolicySnapshot":
        return PolicySnapshot(self)

    def token_index(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ValueError(f"token {token!r} is outside the vocabulary")

    def bucket(self, prompt_key: str, prev_tokens: Sequence[str]) -> int:
        return _context_bucket(
            _prompt_crc(prompt_key), prev_tokens, self.context_size, self.n_contexts
        )

    def log_probs_at(self, bucket: int) -> np.ndarray:
        return _log_softmax(self.theta[bucket])

    def probs_at(self, bucket: int) -> np.ndarray:
        return np.exp(self.log_probs_at(bucket))

    def log_prob(self, prompt_key: str, tokens: Sequence[str]) -> float:
        return self.snapshot().log_prob(prompt_key, tokens)

    def log_prob_with_grad(
        self, prompt_key: str, tokens: Sequence[str]
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """See PolicySnapshot.log_prob_with_grad."""
        return self.snapshot().log_prob_with_grad(prompt_key, tokens)

    def sample(self, prompt_key: str, rng: np.random.Generator) -> tuple[str, ...]:
        """Seeded ancestral sampling, terminated by the end token or max_length."""
        return self.snapshot().sample(prompt_key, rng)

    def entropy_at(self, bucket: int) -> float:
        return float(_entropy_with_grad(self.log_probs_at(bucket))[0])

    def entropy_with_grad(self, bucket: int) -> tuple[float, np.ndarray]:
        h, row = _entropy_with_grad(self.log_probs_at(bucket))
        grad = np.zeros_like(self.theta)
        grad[bucket] = row
        return float(h), grad


class PolicySnapshot:
    """The distribution of a ToyPolicy at one theta, frozen: GRPO's old policy.

    Taking one computes the log-softmax of every context row in one
    vectorised op. The first draw builds the row CDFs and checks once that
    every row is a distribution, the check Generator.choice(p=row) makes on
    each draw. Its tables are copies, read-only, so later updates to the
    policy never reach it; take a new snapshot after theta changes.
    Sampling, log-probs and gradients all read the same tables.
    """

    def __init__(self, policy: ToyPolicy):
        self.vocab = policy.vocab
        self.context_size = policy.context_size
        self.max_length = policy.max_length
        self.eos_token = policy.eos_token
        self.n_contexts = policy.n_contexts
        self.token_index = policy.token_index
        self.log_probs = _log_softmax(policy.theta)
        self.probs = np.exp(self.log_probs)
        self.log_probs.flags.writeable = False
        self.probs.flags.writeable = False

    def snapshot(self) -> "PolicySnapshot":
        return self

    @cached_property
    def _cdf_rows(self) -> list[list[float]]:
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
        return cdf.tolist()

    def path(self, prompt_key: str, tokens: Sequence[str]) -> TokenPath:
        crc = _prompt_crc(prompt_key)
        rows = tuple(
            _context_bucket(crc, tokens[:t], self.context_size, self.n_contexts)
            for t in range(len(tokens))
        )
        return TokenPath(rows, tuple(map(self.token_index, tokens)))

    def path_log_prob(self, path: TokenPath) -> float:
        logp = 0.0
        for lp in self.log_probs[path.rows, path.idxs].tolist():  # in token order
            logp += lp
        return logp

    def path_grad(self, path: TokenPath) -> tuple[np.ndarray, np.ndarray]:
        """The rows of theta the path's log-prob depends on, in order of first
        visit, and its gradient in those rows; it is zero in every other row."""
        grads: dict[int, np.ndarray] = {}
        for b, idx in zip(path.rows, path.idxs):
            row = grads.get(b)
            if row is None:
                row = grads[b] = 0.0 - self.probs[b]
            else:
                row -= self.probs[b]
            row[idx] += 1.0
        rows = np.fromiter(grads, dtype=np.intp, count=len(grads))
        return rows, np.array(list(grads.values())).reshape(len(grads), len(self.vocab))

    def log_prob(self, prompt_key: str, tokens: Sequence[str]) -> float:
        return self.path_log_prob(self.path(prompt_key, tokens))

    def log_prob_with_grad(
        self, prompt_key: str, tokens: Sequence[str]
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Exact log-prob, then path_grad: the rows it depends on and its
        gradient in them."""
        path = self.path(prompt_key, tokens)
        return (self.path_log_prob(path), *self.path_grad(path))

    def draw(
        self, prompt_key: str, rng: np.random.Generator
    ) -> tuple[tuple[str, ...], float, TokenPath]:
        """One seeded ancestral sample, its log-prob and its path. Each token
        takes one uniform from rng and inverts the row CDF (searchsorted,
        side right), which is the draw rng.choice(V, p=row) makes."""
        cdf = self._cdf_rows
        crc = _prompt_crc(prompt_key)
        tokens: list[str] = []
        rows: list[int] = []
        idxs: list[int] = []
        for _ in range(self.max_length):
            b = _context_bucket(crc, tokens, self.context_size, self.n_contexts)
            idx = bisect_right(cdf[b], rng.random())
            rows.append(b)
            idxs.append(idx)
            tokens.append(self.vocab[idx])
            if tokens[-1] == self.eos_token:
                break
        path = TokenPath(tuple(rows), tuple(idxs))
        return tuple(tokens), self.path_log_prob(path), path

    def sample(self, prompt_key: str, rng: np.random.Generator) -> tuple[str, ...]:
        return self.draw(prompt_key, rng)[0]


@dataclass(frozen=True)
class SftBatch:
    prompt_key: str
    target: tuple[str, ...]
    mask: Optional[tuple[bool, ...]] = None  # defaults to all target tokens

    def __post_init__(self) -> None:
        if not self.target:
            raise ValueError("sft target must be non-empty")
        if self.mask is not None and len(self.mask) != len(self.target):
            raise ValueError("mask length must equal target length")


def sft_loss(policy: ToyPolicy, batch: SftBatch) -> tuple[float, np.ndarray]:
    """Negative log-likelihood of the masked target tokens, with exact gradient."""
    mask = batch.mask or tuple(True for _ in batch.target)
    loss = 0.0
    grad = np.zeros_like(policy.theta)
    for t, token in enumerate(batch.target):
        if not mask[t]:
            continue
        b = policy.bucket(batch.prompt_key, batch.target[:t])
        lp = policy.log_probs_at(b)
        idx = policy.token_index(token)
        loss -= lp[idx]
        grad[b] += np.exp(lp)
        grad[b, idx] -= 1.0
    return float(loss), grad


@dataclass
class GrpoConfig:
    group_size: int = 8
    clip_eps: float = 0.2
    kl_coef: float = 1e-4
    entropy_coef: float = 1e-4
    learning_rate: float = 5e-7  # nominal; presets rescale for the tabular regime
    steps: int = 200
    seed: int = 0
    clip_mode: str = "standard"  # "standard" | "literal" (objective as typeset)
    kl_estimator: str = "log_ratio"  # "log_ratio" | "k3"

    def __post_init__(self) -> None:
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError("clip_eps must lie in (0, 1)")
        if self.kl_coef < 0:
            raise ValueError("kl_coef must be non-negative")
        if self.clip_mode not in ("standard", "literal"):
            raise ValueError(f"unknown clip_mode {self.clip_mode!r}")
        if self.kl_estimator not in ("log_ratio", "k3"):
            raise ValueError(f"unknown kl_estimator {self.kl_estimator!r}")


@dataclass
class GroupBatch:
    prompt_key: str
    outputs: tuple[tuple[str, ...], ...]
    logp_old: np.ndarray
    rewards: Optional[np.ndarray] = None
    advantages: Optional[np.ndarray] = None
    # each output's path, recorded by sample_group; None makes grpo_objective
    # hash the outputs itself
    paths: Optional[tuple[TokenPath, ...]] = None

    def __post_init__(self) -> None:
        if len(self.outputs) != len(self.logp_old):
            raise ValueError("outputs and logp_old must have equal length")
        if self.paths is not None and len(self.paths) != len(self.outputs):
            raise ValueError("outputs and paths must have equal length")


def sample_group(
    policy_old: PolicySnapshot | ToyPolicy, prompt_key: str, group_size: int, seed: int
) -> GroupBatch:
    """G independent samples from the old policy, sample i drawn with rng
    seeded [seed, i]; a ToyPolicy is snapshotted first. Each sample's log-prob
    under the snapshot, summed as it is drawn, goes to logp_old for the
    importance ratio, and the context rows it visited to paths."""
    if group_size < 2:
        raise ValueError("group_size must be >= 2")
    snap = policy_old.snapshot()
    outputs, logp_old, paths = zip(
        *(snap.draw(prompt_key, np.random.default_rng([seed, i])) for i in range(group_size))
    )
    return GroupBatch(
        prompt_key=prompt_key,
        outputs=outputs,
        logp_old=np.array(logp_old),
        paths=paths,
    )


def advantages(rewards: Sequence[float]) -> np.ndarray:
    """Group-normalized advantages: (r - mean) / population std; an all-equal
    group yields all zeros rather than dividing by zero.

    The deviations are scaled to max |d| = 1 and centred again before the
    division, so groups whose spread is a few ulps, or whose variance is
    subnormal, still standardise to mean 0 and std 1."""
    r = np.asarray(rewards, dtype=float)
    if r.size < 2:
        raise ValueError("advantages need a group of at least 2 rewards")
    if r.max() == r.min():
        return np.zeros_like(r)
    d = r - r.mean()
    d /= np.abs(d).max()
    d -= d.mean()
    return d / d.std()


def kl_penalty(
    logp_old: float, logp_new: float, estimator: str = "log_ratio"
) -> float:
    """Single-sample KL(old || new) estimator. The default is the plain log
    ratio; "k3" selects the non-negative variant q - 1 - log q."""
    if estimator == "log_ratio":
        return logp_old - logp_new
    if estimator == "k3":
        log_q = logp_new - logp_old
        return float(np.expm1(log_q) - log_q)
    raise ValueError(f"unknown kl estimator {estimator!r}")


def grpo_objective(
    policy: ToyPolicy | PolicySnapshot,
    batch: GroupBatch,
    cfg: GrpoConfig,
) -> tuple[float, np.ndarray]:
    """Clipped-surrogate group objective with KL penalty and entropy bonus;
    returns the value and its exact gradient in theta. It reads one snapshot
    of `policy` (a PolicySnapshot is its own), so both are taken at the
    theta of that snapshot; the gradient is non-zero only in the rows the
    batch's outputs visit."""
    if batch.rewards is None or batch.advantages is None:
        raise ValueError("batch must have rewards and advantages filled")
    if len(batch.outputs) != len(batch.advantages):
        raise ValueError("mismatched group size")
    snap = policy.snapshot()
    paths = batch.paths or [snap.path(batch.prompt_key, o) for o in batch.outputs]
    G = len(batch.outputs)
    eps = cfg.clip_eps
    value = 0.0
    grad = np.zeros_like(snap.log_probs)
    visited: set[int] = set()
    for i, path in enumerate(paths):
        a = float(batch.advantages[i])
        logp_new = snap.path_log_prob(path)
        rows, glogp = snap.path_grad(path)
        visited.update(path.rows)
        rho = float(np.exp(logp_new - batch.logp_old[i]))
        if cfg.clip_mode == "standard":
            unclipped = rho * a
            clipped = float(np.clip(rho, 1 - eps, 1 + eps)) * a
            surr = min(unclipped, clipped)
            # gradient flows through whichever branch attains the min; the
            # clipped branch has zero slope outside the trust region
            if unclipped <= clipped or (1 - eps < rho < 1 + eps):
                gsurr = a * rho * glogp
            else:
                gsurr = 0.0
        else:  # literal: min over the three scalars, then times A
            m = min(rho, 1 - eps)  # min(rho, 1-eps, 1+eps)
            surr = m * a
            gsurr = a * rho * glogp if rho < 1 - eps else 0.0
        kl = kl_penalty(batch.logp_old[i], logp_new, cfg.kl_estimator)
        if cfg.kl_estimator == "log_ratio":
            gkl = -glogp
        else:
            gkl = (np.exp(logp_new - batch.logp_old[i]) - 1.0) * glogp
        value += surr - cfg.kl_coef * kl
        grad[rows] += gsurr - cfg.kl_coef * gkl
    value /= G
    grad /= G
    if cfg.entropy_coef > 0 and visited:
        buckets = sorted(visited)
        h, gh = _entropy_with_grad(snap.log_probs[buckets])
        for hb in h.tolist():
            value += cfg.entropy_coef * hb / len(buckets)
        grad[buckets] += cfg.entropy_coef * gh / len(buckets)
    return float(value), grad
