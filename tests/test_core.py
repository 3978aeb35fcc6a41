import json
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radreason.core import (
    Corpus,
    CorpusError,
    Option,
    PartitionError,
    PartitionTag,
    PromptMode,
    TaskType,
    VqaSample,
    label_by_answer,
    load_corpus,
    partition,
    render_instruction,
    sample_from_record,
    sample_to_record,
    save_corpus,
    write_json,
    write_jsonl,
)


def make_sample(**overrides) -> VqaSample:
    base = dict(
        id="s1",
        task=TaskType.BINARY_DIAGNOSIS,
        images=("img/a.png",),
        question="Is there an effusion?",
        options=(Option("A", "yes"), Option("B", "no")),
        answer="A",
    )
    base.update(overrides)
    return VqaSample(**base)


class TestValidation:
    def test_valid_sample_passes(self):
        make_sample().validate()

    def test_empty_id_rejected(self):
        with pytest.raises(CorpusError, match="id"):
            make_sample(id="").validate()

    def test_bad_split_rejected(self):
        with pytest.raises(CorpusError, match="split"):
            make_sample(split="val").validate()

    def test_close_ended_needs_options(self):
        with pytest.raises(CorpusError, match="options"):
            make_sample(options=(), answer="yes").validate()

    def test_answer_must_be_option_label(self):
        with pytest.raises(CorpusError, match="option label"):
            make_sample(answer="C").validate()

    def test_duplicate_option_labels_rejected(self):
        with pytest.raises(CorpusError, match="duplicate"):
            make_sample(
                options=(Option("A", "yes"), Option("A", "no"))
            ).validate()

    def test_anomaly_detection_takes_no_options(self):
        with pytest.raises(CorpusError, match="options"):
            make_sample(
                task=TaskType.ANOMALY_DETECTION, answer="edema"
            ).validate()

    def test_temporal_comparison_needs_two_images(self):
        with pytest.raises(CorpusError, match="2 images"):
            make_sample(task=TaskType.TEMPORAL_COMPARISON).validate()

    def test_reasoning_without_report_rejected(self):
        with pytest.raises(CorpusError, match="report"):
            make_sample(reasoning="effusion").validate()

    @pytest.mark.parametrize("field, other", [("report", "reasoning"), ("reasoning", "report")])
    def test_blank_report_or_reasoning_rejected(self, field, other):
        # a blank text has no observations to extract; "" is an absent one
        sample = make_sample(**{field: " \n\t", other: "Effusion."})
        with pytest.raises(CorpusError, match=f"sample s1: field '{field}' is blank"):
            sample.validate()


class TestPartition:
    def test_tags(self):
        assert make_sample().partition is PartitionTag.ANSWER_ONLY
        augmented = make_sample(report="Effusion.", reasoning="effusion")
        assert augmented.partition is PartitionTag.REASONING_AUGMENTED

    def test_mixed_sample_has_no_partition(self):
        mixed = make_sample(report="Effusion.")
        assert mixed.partition is None

    def test_partition_split(self):
        a = make_sample(id="a")
        b = make_sample(id="b", report="Effusion.", reasoning="effusion")
        d_r, d_a = partition(Corpus((a, b)))
        assert [s.id for s in d_r.samples] == ["b"]
        assert [s.id for s in d_a.samples] == ["a"]

    def test_mixed_sample_rejected_with_ids(self):
        bad = make_sample(id="bad", report="Effusion.")
        with pytest.raises(PartitionError) as exc:
            partition(Corpus((bad,)))
        assert exc.value.ids == ["bad"]


class TestCorpus:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(CorpusError, match="duplicate"):
            Corpus((make_sample(), make_sample()))


class TestSerialization:
    def test_round_trip(self):
        s = make_sample(report="Effusion.", reasoning="effusion", source="unit")
        assert sample_from_record(sample_to_record(s)) == s

    def test_file_round_trip(self, tmp_path):
        corpus = Corpus((make_sample(id="a"), make_sample(id="b")))
        path = tmp_path / "c.jsonl"
        save_corpus(corpus, path)
        loaded = load_corpus(path)
        assert loaded.samples == corpus.samples

    def test_load_reports_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        good = json.dumps(sample_to_record(make_sample()))
        path.write_text(good + "\n" + "{not json\n", encoding="utf-8")
        with pytest.raises(CorpusError, match=":2:"):
            load_corpus(path)

    def test_load_reports_missing_field(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = sample_to_record(make_sample())
        del rec["question"]
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="question"):
            load_corpus(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_writers_refuse_non_finite_numbers(self, tmp_path, value):
        # NaN and Infinity are not JSON: the error names the file
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: Out of range float"):
            write_json(path, {"x": value})
        assert not path.exists()
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}l: Out of range float"):
            write_jsonl(f"{path}l", [{"x": 1.0}, {"x": value}])

    def test_refused_record_leaves_files_as_they_were(self, tmp_path):
        # the lines go to a temporary file that replaces the target only
        # once every record is written: no new file, an old one untouched
        new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
        write_jsonl(old, [{"x": 1.0}])
        before = old.read_bytes()
        for path in (new, old):
            with pytest.raises(ValueError, match="Out of range float"):
                write_jsonl(path, [{"x": 2.0}, {"x": float("nan")}])
        assert not new.exists()
        assert old.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.jsonl"]
        write_jsonl(old, [{"x": 2.0}])
        assert old.read_text(encoding="utf-8") == '{"x": 2.0}\n'

    def test_write_error_names_the_target(self, tmp_path):
        # not the temporary file the lines go to first
        for path, error in ((tmp_path / "missing" / "x.jsonl", FileNotFoundError),
                            (tmp_path, IsADirectoryError)):
            with pytest.raises(error, match=f"{re.escape(repr(str(path)))}$"):
                write_jsonl(path, [{"x": 1.0}])
        assert sorted(tmp_path.parent.glob("*.tmp")) == []

    def test_load_rejects_unknown_task(self, tmp_path):
        path = tmp_path / "c.jsonl"
        rec = sample_to_record(make_sample())
        rec["task"] = "segmentation"
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="task"):
            load_corpus(path)


class TestInstructionRendering:
    def test_direct_prompt_golden(self):
        s = make_sample()
        assert render_instruction(s, PromptMode.DIRECT) == (
            "System: You are a helpful AI assistant.\n"
            "User: <image>Is there an effusion? Options: A) yes B) no"
            " Please enclose the answer within <answer></answer>"
        )

    def test_cot_prompt_golden(self):
        s = make_sample()
        assert render_instruction(s, PromptMode.COT) == (
            "System: You are a helpful AI assistant.\n"
            "User: <image>Is there an effusion? Options: A) yes B) no"
            " Please think step by step, and enclose the answer within"
            " <answer></answer> and the reasoning processes within"
            " <think></think>."
        )

    def test_one_placeholder_per_image(self):
        s = make_sample(
            task=TaskType.TEMPORAL_COMPARISON,
            images=("img/a.png", "img/b.png"),
            options=(Option("A", "improved"), Option("B", "worsened")),
        )
        assert render_instruction(s, PromptMode.DIRECT).count("<image>") == 2

    def test_open_ended_prompt_has_no_options(self):
        s = make_sample(task=TaskType.ANOMALY_DETECTION, options=(), answer="edema")
        assert "Options:" not in render_instruction(s, PromptMode.DIRECT)

    def test_rendering_is_deterministic(self):
        s = make_sample()
        assert render_instruction(s, PromptMode.COT) == render_instruction(
            s, PromptMode.COT
        )


def test_label_by_answer_uses_option_text():
    assert label_by_answer(make_sample()) == "yes"
    open_ended = make_sample(
        task=TaskType.ANOMALY_DETECTION, options=(), answer="edema"
    )
    assert label_by_answer(open_ended) == "edema"


@given(
    report=st.sampled_from(["", "Effusion."]),
    reasoning=st.sampled_from(["", "effusion"]),
)
def test_partition_tag_covers_exactly_the_consistent_cases(report, reasoning):
    if reasoning and not report:
        return  # rejected by validation
    s = make_sample(report=report, reasoning=reasoning)
    if bool(report) == bool(reasoning):
        assert s.partition is not None
    else:
        assert s.partition is None
