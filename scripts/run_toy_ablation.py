"""Run every training preset on the synthetic diagnosis task through
`radreason train-toy` and tabulate final reward and probe factuality.

The probe factuality is the last non-null `process_factuality` of a run's
`stats.jsonl`: the mean process reward of the outputs that GRPO step
sampled for reasoning-augmented prompts, before the step's update. Presets
without such prompts in their GRPO data, or without GRPO, show nan.

Each run uses the recipe `train-toy` runs with no config; `--steps` sets
only the GRPO step count (the config key `grpo.steps`). Exits 1 as soon as
a `train-toy` run fails.

Usage: python3 scripts/run_toy_ablation.py [--seeds N] [--steps N]
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radreason.cli import main as radreason_main
from radreason.core import save_corpus
from radreason.training import PRESETS, make_toy_corpus


def train_toy(work: Path, preset: str, seed: int) -> list[dict]:
    """Per-step stats of one `train-toy` run; exits if the run fails."""
    out = work / f"{preset}-{seed}"
    argv = ["--config", str(work / "config.json"), "--seed", str(seed),
            "train-toy", str(work / "toy.jsonl"), "--preset", preset, "--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):  # its "checkpoint written" line
        code = radreason_main(argv)
    if code:
        sys.exit(f"train-toy --preset {preset} --seed {seed} exited {code}")
    return [json.loads(line) for line in (out / "stats.jsonl").read_text().splitlines()]


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--steps", type=int, default=200)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        save_corpus(make_toy_corpus(), work / "toy.jsonl")
        (work / "config.json").write_text(json.dumps({"grpo": {"steps": args.steps}}))
        print(f"{'preset':<20} {'seed':>4} {'final_reward':>12} {'probe_factuality':>16}")
        for name in sorted(PRESETS):
            rewards, probes = [], []
            for seed in range(args.seeds):
                stats = train_toy(work, name, seed)
                grpo_steps = [s for s in stats if s["stage"] == "grpo"]
                reward = grpo_steps[-1]["mean_reward"] if grpo_steps else float("nan")
                probe_vals = [
                    s["process_factuality"]
                    for s in stats
                    if s["process_factuality"] is not None
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
