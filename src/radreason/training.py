"""Desk-scale two-stage training: SFT cold start, then GRPO with the
composite reward, over the tabular toy policy.

Ablation presets select which data partitions and reward components each
stage uses, mirroring the training-strategy comparison grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .core import (
    Corpus,
    PartitionTag,
    PromptMode,
    TaskType,
    VqaSample,
    partition,
    render_instruction,
)
from .policy import (
    GrpoConfig,
    SftBatch,
    ToyPolicy,
    Windows,
    advantages,
    group_uniforms,
    grpo_objective,
    kl_penalty,
    sample_group,
)
from .rewards import RewardBreakdown, RewardConfig, process_reward, total_reward
from .tags import parse_tags

TAG_TOKENS = ("<think>", "</think>", "<answer>", "</answer>")
EOS_TOKEN = "<eos>"


class PresetError(ValueError):
    pass


def toy_tokens(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def detokenize(tokens: tuple[str, ...], eos_token: str = EOS_TOKEN) -> str:
    return " ".join(t for t in tokens if t != eos_token)


def prompt_mode_for(sample: VqaSample) -> PromptMode:
    if sample.partition is PartitionTag.REASONING_AUGMENTED:
        return PromptMode.COT
    return PromptMode.DIRECT


def target_tokens(sample: VqaSample) -> tuple[str, ...]:
    """Expected output token sequence: reasoning wrapped in think tags plus
    the answer for reasoning-augmented samples, the answer alone otherwise."""
    answer = toy_tokens(sample.answer)
    if sample.partition is PartitionTag.REASONING_AUGMENTED:
        return (
            ("<think>",)
            + toy_tokens(sample.reasoning)
            + ("</think>", "<answer>")
            + answer
            + ("</answer>", EOS_TOKEN)
        )
    return ("<answer>",) + answer + ("</answer>", EOS_TOKEN)


def build_vocab(corpus: Corpus) -> tuple[str, ...]:
    tokens: set[str] = set(TAG_TOKENS) | {EOS_TOKEN}
    for s in corpus.samples:
        tokens.update(target_tokens(s))
    return tuple(sorted(tokens))


def make_sft_batches(corpus: Corpus) -> list[SftBatch]:
    batches = []
    for s in corpus.samples:
        prompt = render_instruction(s, prompt_mode_for(s))
        batches.append(SftBatch(prompt_key=prompt, target=target_tokens(s)))
    return batches


@dataclass
class SftConfig:
    """The SFT stage of `train-toy`; a config file's `sft` section overrides
    fields."""

    learning_rate: float = 0.5  # tabular-regime rescale of the nominal 2e-6
    steps: int = 25

    def __post_init__(self) -> None:
        if not self.learning_rate > 0:  # NaN too
            raise ValueError("learning_rate must be > 0")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")


@dataclass
class StepStats:
    step: int
    stage: str
    loss: Optional[float] = None
    mean_reward: Optional[float] = None
    mean_format: Optional[float] = None
    mean_outcome: Optional[float] = None
    mean_process: Optional[float] = None
    mean_kl: Optional[float] = None
    # probe steps: mean process reward of the step's own batch on reasoning-augmented prompts
    process_factuality: Optional[float] = None
    # share of groups whose rewards were all equal: zero advantage, no signal
    zero_advantage_share: Optional[float] = None


def train_sft(
    policy: ToyPolicy, corpus: Corpus, cfg: SftConfig
) -> tuple[ToyPolicy, list[StepStats]]:
    """Full-batch gradient descent on the mean SFT loss: every step scores
    all targets under the current policy and descends along one scatter of
    their gradients. The targets' rows do not depend on theta, so they are
    encoded once, for the whole run."""
    if len(corpus) == 0:
        raise PresetError("sft stage: empty corpus")
    batches = make_sft_batches(corpus)
    n = len(batches)
    windows = Windows(policy, [b.prompt_key for b in batches])
    tokens = windows.encode([b.target for b in batches], np.arange(n))
    stats = []
    for step in range(cfg.steps):
        # minus each target's log-prob, summed in target order
        total_loss = sum((-policy.sequence_log_probs(tokens)).tolist()) / n
        grad = policy.scatter_grad(tokens, np.full(n, -1.0)) / n
        policy = policy.with_theta(policy.theta - cfg.learning_rate * grad)
        stats.append(StepStats(step=step, stage="sft", loss=total_loss))
    return policy, stats


def _group_rewards(
    outputs: tuple[tuple[str, ...], ...],
    sample: VqaSample,
    reward_cfg: RewardConfig,
    eos_token: str,
) -> list[RewardBreakdown]:
    return [
        total_reward(detokenize(o, eos_token), sample, config=reward_cfg)
        for o in outputs
    ]


PROBE_EVERY = 25  # GRPO steps between factuality probes (plus first and last)
DRAW_ROWS = 2_048  # sample uniforms drawn at once, in whole steps


def _step_uniforms(cfg: GrpoConfig, n_samples: int, length: int):
    """Yield each GRPO step's sample uniforms. They do not depend on theta,
    so they are drawn a block of about DRAW_ROWS rows at a time. Sample i of
    prompt j at step t is seeded [seed * 1_000_003 + t * 1_009 + j, i]."""
    G, steps = cfg.group_size, cfg.steps
    block = max(1, DRAW_ROWS // (n_samples * G))
    for first in range(0, steps, block):
        block_steps = range(first, min(first + block, steps))
        seeds = [
            cfg.seed * 1_000_003 + t * 1_009 + j
            for t in block_steps
            for j in range(n_samples)
        ]
        drawn = group_uniforms(seeds, G, length)
        yield from drawn.reshape(len(block_steps), n_samples * G, length)


def train_grpo(
    policy: ToyPolicy,
    corpus: Corpus,
    reward_cfg: RewardConfig,
    cfg: GrpoConfig,
) -> tuple[ToyPolicy, list[StepStats]]:
    """Full-batch updates: every step samples one group per prompt from the
    policy, all groups together, then applies one optimizer step along the
    mean of the group objectives. The policy that drew a batch is also the
    one its objective differentiates (one update per batch); the updated
    policy serves that step's KL estimate, then draws the next batch. The
    first, the last and every PROBE_EVERY-th step also probe the process
    factuality of the batch (drawn before the update) on its reasoning-
    augmented prompts, for every preset. Fully deterministic given
    (corpus, config, seed)."""
    if len(corpus) == 0:
        raise PresetError("grpo stage: empty corpus")
    samples = sorted(corpus.samples, key=lambda s: s.id)
    reasoning = [j for j, s in enumerate(samples) if s.partition is PartitionTag.REASONING_AUGMENTED]
    # the rows every prompt can read: they do not depend on theta, so the
    # table serves the whole run
    windows = Windows(
        policy, [render_instruction(s, prompt_mode_for(s)) for s in samples]
    )
    G, eos = cfg.group_size, policy.eos_token
    stats = []
    draws = _step_uniforms(cfg, len(samples), policy.max_length)
    for step, uniforms in enumerate(draws):
        batch = sample_group(policy, windows, uniforms)
        groups = [
            _group_rewards(batch.outputs[j * G : (j + 1) * G], sample, reward_cfg, eos)
            for j, sample in enumerate(samples)
        ]
        rewards = np.array([[b.total for b in group] for group in groups])
        _, grad = grpo_objective(policy, batch, advantages(rewards).ravel(), cfg)
        policy = policy.with_theta(policy.theta + cfg.learning_rate * grad)

        probe = None
        if reasoning and (step in (0, cfg.steps - 1) or (step + 1) % PROBE_EVERY == 0):
            probe = float(np.mean([
                process_reward(parse_tags(detokenize(o, eos)), samples[j], reward_cfg.matcher)
                for j in reasoning
                for o in batch.outputs[j * G : (j + 1) * G]
            ]))
        kl_new = kl_penalty(
            batch.logp_old, policy.sequence_log_probs(batch.tokens), cfg.kl_estimator
        )
        breakdowns = [b for group in groups for b in group]
        stats.append(
            StepStats(
                step=step,
                stage="grpo",
                mean_reward=float(rewards.mean()),
                mean_format=float(np.mean([b.format for b in breakdowns])),
                mean_outcome=float(np.mean([b.outcome for b in breakdowns])),
                mean_process=float(np.mean([b.process for b in breakdowns])),
                mean_kl=float(np.mean(kl_new)),
                process_factuality=probe,
                zero_advantage_share=float(
                    (rewards.max(axis=1) == rewards.min(axis=1)).mean()
                ),
            )
        )
    return policy, stats


# ---------------------------------------------------------------------------
# ablation presets

@dataclass(frozen=True)
class StageSpec:
    kind: str  # "sft" | "grpo"
    data: str  # "R" | "A" | "both"
    use_process_reward: bool = False


# preset name -> its stages, run in order
PRESETS: dict[str, tuple[StageSpec, ...]] = {
    "sft_ro": (StageSpec("sft", "R"),),
    "sft_both": (StageSpec("sft", "both"),),
    "rl_o": (StageSpec("grpo", "A"),),
    "sft_ro_rl_o": (StageSpec("sft", "R"), StageSpec("grpo", "A")),
    "no_process_reward": (StageSpec("sft", "both"), StageSpec("grpo", "both")),
    "full": (StageSpec("sft", "both"), StageSpec("grpo", "both", use_process_reward=True)),
}


def _select_data(corpus: Corpus, which: str) -> Corpus:
    if which == "both":
        return corpus
    d_r, d_a = partition(corpus)
    selected = d_r if which == "R" else d_a
    if len(selected) == 0:
        raise PresetError(f"preset stage needs partition {which!r}, which is empty")
    return selected


def run_preset(
    preset_name: str,
    corpus: Corpus,
    policy: ToyPolicy,
    sft_cfg: SftConfig,
    grpo_cfg: GrpoConfig,
) -> tuple[ToyPolicy, list[StepStats]]:
    if preset_name not in PRESETS:
        raise PresetError(
            f"unknown preset {preset_name!r}; expected one of {sorted(PRESETS)}"
        )
    all_stats: list[StepStats] = []
    for spec in PRESETS[preset_name]:
        data = _select_data(corpus, spec.data)
        if spec.kind == "sft":
            policy, stats = train_sft(policy, data, sft_cfg)
        else:
            reward_cfg = RewardConfig(use_process_reward=spec.use_process_reward)
            policy, stats = train_grpo(policy, data, reward_cfg, grpo_cfg)
        all_stats.extend(stats)
    return policy, all_stats


# ---------------------------------------------------------------------------
# synthetic factual-grammar task

_TOY_FINDINGS = (
    "pleural_effusion",
    "cardiomegaly",
    "pneumothorax",
    "consolidation",
)


def make_toy_corpus(seed: int = 0) -> Corpus:
    """Tiny synthetic diagnosis corpus: one single-finding report paired with
    a yes/no question per finding, plus as many answer-only twins, whose
    findings the seed draws."""
    from .core import Option

    rng = np.random.default_rng(seed)
    samples = []
    for i, finding in enumerate(_TOY_FINDINGS):
        readable = finding.replace("_", " ")
        samples.append(
            VqaSample(
                id=f"toy_r{i:03d}",
                task=TaskType.BINARY_DIAGNOSIS,
                images=(f"img/toy_r{i:03d}.png",),
                question=f"Does this chest X-ray show {readable}?",
                options=(Option("A", "yes"), Option("B", "no")),
                answer="A",
                report=f"{readable}.",
                reasoning=finding,
                source="toy",
                split="train",
            )
        )
    for i in range(len(_TOY_FINDINGS)):
        finding = _TOY_FINDINGS[int(rng.integers(len(_TOY_FINDINGS)))]
        readable = finding.replace("_", " ")
        samples.append(
            VqaSample(
                id=f"toy_a{i:03d}",
                task=TaskType.BINARY_DIAGNOSIS,
                images=(f"img/toy_a{i:03d}.png",),
                question=f"Does this chest X-ray show {readable}?",
                options=(Option("A", "yes"), Option("B", "no")),
                answer="A" if i % 2 == 0 else "B",
                source="toy",
                split="train",
            )
        )
    return Corpus(tuple(samples))


def make_toy_policy(corpus: Corpus, n_contexts: int = 256) -> ToyPolicy:
    """The uniform policy `train-toy` starts from: 2-token contexts hashed
    into `n_contexts` rows, outputs of at most 10 tokens (end token
    included) over the corpus's vocabulary."""
    return ToyPolicy.uniform(
        build_vocab(corpus),
        n_contexts=n_contexts,
        context_size=2,
        max_length=10,
        eos_token=EOS_TOKEN,
    )


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(policy: ToyPolicy, path: str | Path, config_hash: str) -> None:
    path = Path(path)
    np.savez(
        path,
        theta=policy.theta,
        vocab=np.array(policy.vocab),
        context_size=policy.context_size,
        max_length=policy.max_length,
        eos_token=policy.eos_token,
        config_hash=config_hash,
    )


def load_checkpoint(path: str | Path) -> ToyPolicy:
    data = np.load(Path(path), allow_pickle=False)
    return ToyPolicy(
        vocab=tuple(str(t) for t in data["vocab"]),
        theta=data["theta"],
        context_size=int(data["context_size"]),
        max_length=int(data["max_length"]),
        eos_token=str(data["eos_token"]),
    )
