"""Command-line surface: mine, compile-bench, score, eval, train-toy."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .core import Kind, kind_fault, load_corpus, write_json
from .harness import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_SAMPLE_ERRORS,
    cmd_compile,
    cmd_eval,
    cmd_mine,
    cmd_score,
    cmd_train_toy,
    write_manifest,
)
from .llm import CompletionError, make_client
from .mining import load_chains
from .observations import LexicalMatcher, LlmMatcher, SynonymTable
from .policy import GrpoConfig
from .training import PRESETS, SftConfig


# the kind of each top-level key a config file may hold; any other is refused
_CONFIG_FIELDS = {"sft": Kind.OBJECT, "grpo": Kind.OBJECT, **dict.fromkeys(
    ("matcher", "synonym_table", "cache_dir", "mock_fixture", "base_url"), Kind.STRING)}
# a config section's key has the kind of its dataclass field's annotation
_ANNOTATION_KINDS = {"int": Kind.INTEGER, "float": Kind.NUMBER, "str": Kind.STRING}


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        config = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: invalid JSON: nested too deeply") from None
    if not isinstance(config, dict):
        raise ValueError(f"{path}: not a JSON object")
    return config


def _section(cls, name: str, section: dict):
    """`cls` built from a config section, whose keys must be fields of `cls`
    of their annotated kind; a fault, or a value that `cls` refuses, raises
    ValueError `config: <section>.<field> ...`."""
    kinds = {f.name: _ANNOTATION_KINDS[f.type] for f in dataclasses.fields(cls)}
    for key, value in section.items():
        if key not in kinds:
            raise ValueError(f"config: unknown key {key!r} in section {name!r}")
        if fault := kind_fault(value, kinds[key]):
            raise ValueError(f"config: {name}.{key} {fault}")
    try:
        return cls(**section)
    except ValueError as e:
        raise ValueError(f"config: {name}.{e}") from None


def _make_matcher(args, config: dict, client=None):
    """The configured matcher; an llm matcher asks `client`, or a client
    of its own when none is given."""
    backend = config.get("matcher", "lexical")
    if backend == "lexical":
        table = config.get("synonym_table")
        synonyms = SynonymTable.from_file(table) if table else SynonymTable.bundled()
        return LexicalMatcher(synonyms)
    if backend == "llm":
        return LlmMatcher(client or _make_llm_client(args, config))
    raise ValueError(f"unknown matcher backend {backend!r}")


def _make_llm_client(args, config: dict):
    return make_client(
        args.backend,
        cache_dir=config.get("cache_dir"),
        mock_fixture=config.get("mock_fixture"),
        base_url=config.get("base_url", ""),
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radreason",
        description=(
            "Mine reasoning chains from clinical reports, score reasoning, "
            "evaluate with bootstrap CIs, and run toy training presets."
        ),
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--backend",
        choices=["remote", "mock", "cache-only"],
        default="mock",
        help="completion backend for mining / llm matching",
    )
    parser.add_argument("--workers", type=_positive_int, default=1)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine reasoning chains and compile a benchmark")
    p.add_argument("corpus")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--threshold", type=float, default=1.0)

    p = sub.add_parser("compile-bench", help="compile a benchmark from corpus + chains")
    p.add_argument("corpus")
    p.add_argument("chains", help="JSONL of mined chains")
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=1.0)

    p = sub.add_parser("score", help="score model outputs against the corpus")
    p.add_argument("corpus")
    p.add_argument("outputs", help="JSONL of {id, output} records")
    p.add_argument("--out", required=True, help="score records file")

    p = sub.add_parser("eval", help="aggregate score records into a CI table")
    p.add_argument("records", help="score records file from `score`")
    p.add_argument("--out", help="machine-readable report file")
    p.add_argument("--resamples", type=_positive_int, default=1000)

    p = sub.add_parser("train-toy", help="run a toy training preset")
    p.add_argument("corpus")
    p.add_argument("--preset", default=None, help="preset name; omit to list presets")
    p.add_argument("--out", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
    except (OSError, ValueError) as e:  # ValueError covers bad JSON and UTF-8
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return EXIT_FATAL

    try:
        for key, value in config.items():
            if key not in _CONFIG_FIELDS:
                raise ValueError(f"config: unknown key {key!r}")
            if fault := kind_fault(value, _CONFIG_FIELDS[key]):
                what = "section" if _CONFIG_FIELDS[key] is Kind.OBJECT else "key"
                raise ValueError(f"config: {what} {key!r} {fault}")
        if args.command in ("mine", "compile-bench"):
            corpus = load_corpus(args.corpus)
            matcher = None
            if args.command == "mine":
                client = _make_llm_client(args, config)
                matcher = _make_matcher(args, config, client)
                bundle, n_rejected = cmd_mine(
                    corpus,
                    client,
                    matcher,
                    out_dir=args.out,
                    seed=args.seed,
                    threshold=args.threshold,
                    workers=args.workers,
                )
            else:
                bundle, n_rejected = cmd_compile(
                    corpus,
                    load_chains(args.chains),
                    out_dir=args.out,
                    seed=args.seed,
                    threshold=args.threshold,
                )
            write_manifest(Path(args.out), config, args.seed, matcher)
            print(json.dumps(bundle.manifest["counts"], sort_keys=True))
            return EXIT_SAMPLE_ERRORS if n_rejected else EXIT_OK

        if args.command == "score":
            corpus = load_corpus(args.corpus)
            matcher = _make_matcher(args, config)
            n_scored, errors = cmd_score(
                args.outputs, corpus, matcher, out_path=args.out, workers=args.workers
            )
            print(f"scored {n_scored} outputs, {len(errors)} errors")
            return EXIT_SAMPLE_ERRORS if errors else EXIT_OK

        if args.command == "eval":
            report = cmd_eval(args.records, resamples=args.resamples, seed=args.seed)
            sys.stdout.write(report.render_table())
            if args.out:
                write_json(args.out, report.as_dict())
            return EXIT_OK

        if args.command == "train-toy":
            if args.preset is None:
                print("\n".join(sorted(PRESETS)))
                return EXIT_OK
            corpus = load_corpus(args.corpus)
            sections = {name: config.get(name, {}) for name in ("sft", "grpo")}
            if "seed" in sections["grpo"]:
                raise ValueError("config: section 'grpo' cannot set 'seed'; --seed sets it")
            if sections["grpo"].get("clip_mode") == "literal":
                raise ValueError(
                    "config: grpo.clip_mode 'literal' trains nothing in train-toy: with one "
                    "update per batch the ratio is 1 and min(ratio, 1 - clip_eps) * A has "
                    "no advantage gradient; use 'standard'"
                )
            sft_cfg = _section(SftConfig, "sft", sections["sft"])
            grpo_cfg = _section(GrpoConfig, "grpo", {**sections["grpo"], "seed": args.seed})
            checkpoint = cmd_train_toy(
                corpus,
                args.preset,
                out_dir=args.out,
                sft_cfg=sft_cfg,
                grpo_cfg=grpo_cfg,
            )
            print(f"checkpoint written to {checkpoint}")
            return EXIT_OK

        parser.error(f"unknown command {args.command!r}")
    except (OSError, CompletionError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FATAL
    return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
