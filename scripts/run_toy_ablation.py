"""Run every training preset on the synthetic diagnosis task and tabulate
final reward and probe factuality.

Usage: python3 scripts/run_toy_ablation.py [--seeds N] [--steps N]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radreason.training import (
    PRESETS,
    SftConfig,
    make_toy_corpus,
    make_toy_policy,
    run_preset,
    toy_grpo_config,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--steps", type=int, default=200)
    args = parser.parse_args()

    corpus = make_toy_corpus()
    print(f"{'preset':<20} {'seed':>4} {'final_reward':>12} {'probe_factuality':>16}")
    for name in sorted(PRESETS):
        rewards, probes = [], []
        for seed in range(args.seeds):
            policy = make_toy_policy(corpus, n_contexts=256)
            _, stats = run_preset(
                name,
                corpus,
                policy,
                SftConfig(),
                toy_grpo_config(seed=seed, steps=args.steps),
            )
            grpo_steps = [s for s in stats if s.stage == "grpo"]
            reward = grpo_steps[-1].mean_reward if grpo_steps else float("nan")
            probe_vals = [
                s.process_factuality for s in stats if s.process_factuality is not None
            ]
            probe = probe_vals[-1] if probe_vals else float("nan")
            rewards.append(reward)
            probes.append(probe)
            print(f"{name:<20} {seed:>4} {reward:>12.4f} {probe:>16.4f}")
        mean_reward = np.nanmean(rewards) if not np.all(np.isnan(rewards)) else float("nan")
        mean_probe = np.nanmean(probes) if not np.all(np.isnan(probes)) else float("nan")
        print(f"{name:<20} {'mean':>4} {mean_reward:>12.4f} {mean_probe:>16.4f}")


if __name__ == "__main__":
    main()
