import re
import sys
import threading
from unittest.mock import patch

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radreason import observations
from radreason.observations import (
    _SCAFFOLD_RES,
    LexicalMatcher,
    Observation,
    ObservationSet,
    Polarity,
    Role,
    SynonymTable,
    _clause_observations,
    _strip_scaffolding,
    detect_polarity,
    is_normalish,
    lexical_extract,
    normalize_phrase,
)

PHRASES = [
    "pleural effusion",
    "no pleural effusion",
    "cardiomegaly",
    "no cardiomegaly",
    "pneumothorax",
    "no pneumothorax",
    "clear lungs",
    "atelectasis",
    "rib fracture",
    "edema",
]

# synonym and negation variants of PHRASES, which match some of them
VARIANTS = [
    "an enlarged heart",
    "enlarged heart",
    "pneumothorax is absent",
    "pneumothorax absent",
    "without pleural effusion",
    "lung tissue collapse",
    "the effusion",
    "Pleural Effusion.",
]

# one surface form for each scaffold prefix pattern
SCAFFOLDS = [
    "first", "In conclusion", "based on the given images", "upon reviewing the film",
    "turning to the lungs", "regarding the heart", "the images show",
    "we can observe that", "observations revealed", "there are",
    "checking for", "given these findings", "the findings suggest",
    "confirming the diagnosis of", "consistent with",
]


class TestNormalize:
    def test_lowercase_and_punctuation(self):
        assert normalize_phrase("Pleural  Effusion.") == "pleural effusion"

    def test_underscores_become_spaces(self):
        assert normalize_phrase("pleural_effusion") == "pleural effusion"

    def test_articles_dropped(self):
        assert normalize_phrase("an enlarged heart") == "enlarged heart"
        assert normalize_phrase("the a an effusion") == "effusion"

    @given(st.text(max_size=80))
    def test_idempotent(self, text):
        once = normalize_phrase(text)
        assert normalize_phrase(once) == once


class TestPolarity:
    @pytest.mark.parametrize(
        "phrase",
        [
            "no pneumothorax",
            "clear lungs",
            "heart size within normal limits",
            "unremarkable mediastinum",
            "effusion is absent",
            "without focal consolidation",
        ],
    )
    def test_normalish(self, phrase):
        assert detect_polarity(normalize_phrase(phrase)) is Polarity.ABSENT_OR_NORMAL

    @pytest.mark.parametrize("phrase", ["pneumothorax", "mild cardiomegaly"])
    def test_present(self, phrase):
        assert detect_polarity(normalize_phrase(phrase)) is Polarity.PRESENT

    def test_is_normalish_follows_polarity(self):
        assert is_normalish(Observation.from_text("no effusion"))
        assert not is_normalish(Observation.from_text("effusion"))


class TestExtraction:
    def test_negation_scope_distributes(self):
        text = (
            "Based on the given images, there are no visible signs of lung "
            "tissue collapse or an enlarged heart. Besides, there are no "
            "signs of pneumothorax."
        )
        obs = lexical_extract(text, Role.MODEL)
        assert obs.normalized_forms() == (
            "no lung tissue collapse",
            "no enlarged heart",
            "no pneumothorax",
        )
        assert all(o.polarity is Polarity.ABSENT_OR_NORMAL for o in obs.items)

    @given(st.text(st.sampled_from(".!?;\n, \tab")))
    def test_one_split_gives_the_clauses_of_sentences_then_commas(self, text):
        by_sentence = [
            clause
            for sentence in re.split(r"[.!?;\n]+", text) if sentence.strip()
            for clause in sentence.split(",") if clause.strip()
        ]
        assert [c for c in observations._CLAUSE_SPLIT.split(text) if c.strip()] == by_sentence

    def test_present_and_normal_mix(self):
        obs = lexical_extract("Mild cardiomegaly. Clear lungs.", Role.REPORT)
        assert [(o.normalized, o.polarity) for o in obs.items] == [
            ("mild cardiomegaly", Polarity.PRESENT),
            ("clear lungs", Polarity.ABSENT_OR_NORMAL),
        ]

    def test_conjoined_present_findings_split(self):
        obs = lexical_extract(
            "The findings indicate atelectasis and pneumonia.", Role.MODEL
        )
        assert obs.normalized_forms() == ("atelectasis", "pneumonia")

    def test_negation_folding_variants(self):
        for text in [
            "pneumothorax is absent",
            "Without pneumothorax",
            "absence of pneumothorax",
            "pneumothorax is not seen",
        ]:
            obs = lexical_extract(text, Role.MODEL)
            assert obs.normalized_forms() == ("no pneumothorax",), text

    def test_answer_restatement_dropped(self):
        obs = lexical_extract("Mild edema. The answer is A) yes.", Role.MODEL)
        assert obs.normalized_forms() == ("mild edema",)

    def test_duplicates_deduped(self):
        obs = lexical_extract("Effusion. There is effusion.", Role.MODEL)
        assert obs.normalized_forms() == ("effusion",)

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            lexical_extract("   ", Role.MODEL)

    @given(st.lists(st.sampled_from(PHRASES), min_size=1, max_size=6))
    def test_extraction_of_joined_phrases_is_subset_of_inputs(self, phrases):
        text = ". ".join(phrases) + "."
        obs = lexical_extract(text, Role.MODEL)
        assert set(obs.normalized_forms()) <= {normalize_phrase(p) for p in phrases}


class TestSynonyms:
    def test_bundled_table_versioned(self):
        table = SynonymTable.bundled()
        assert table.version == "1"

    def test_fold_examples(self):
        table = SynonymTable.bundled()
        assert table.fold("enlarged heart") == "cardiomegaly"
        assert table.fold("lung tissue collapse") == "atelectasis"
        assert table.fold("pneumothorax absent") == "no pneumothorax"
        assert table.fold("unknown thing") == "unknown thing"

    def test_empty_table_is_identity(self):
        assert SynonymTable.empty().fold("enlarged heart") == "enlarged heart"

    def test_from_file(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("# version=7\nfoo\tbar\tbaz\n", encoding="utf-8")
        table = SynonymTable.from_file(path)
        assert table.version == "7"
        assert table.fold("baz") == "foo"


class TestMatcher:
    def test_synonym_match(self, matcher):
        a = Observation.from_text("cardiomegaly")
        b = Observation.from_text("an enlarged heart")
        assert matcher.matches(a, b)

    def test_polarity_blocks_match(self, matcher):
        a = Observation.from_text("pneumothorax")
        b = Observation.from_text("no pneumothorax")
        assert not matcher.matches(a, b)

    def test_negated_synonym_match(self, matcher):
        a = Observation.from_text("no pneumothorax")
        b = Observation.from_text("pneumothorax is absent")
        assert matcher.matches(a, b)

    def test_polarity_blocks_equal_forms(self, matcher):
        a = Observation("effusion", "effusion", Polarity.PRESENT)
        b = Observation("effusion", "effusion", Polarity.ABSENT_OR_NORMAL)
        assert not matcher.matches(a, b)
        report = ObservationSet((b,), Role.REPORT)
        assert matcher.partition(ObservationSet((a,), Role.MODEL), report) == ((), (a,))

    @given(st.sampled_from(PHRASES))
    def test_reflexive(self, phrase):
        m = LexicalMatcher()
        o = Observation.from_text(phrase)
        assert m.matches(o, o)

    @given(st.sampled_from(PHRASES), st.sampled_from(PHRASES))
    def test_symmetric(self, p1, p2):
        m = LexicalMatcher()
        a, b = Observation.from_text(p1), Observation.from_text(p2)
        assert m.matches(a, b) == m.matches(b, a)


def _pairwise_partition(a, b, matcher):
    """Reference: ask `matches` for every pair."""
    matched = [x for x in a.items if any(matcher.matches(x, y) for y in b.items)]
    unmatched = [x for x in a.items if not any(matcher.matches(x, y) for y in b.items)]
    return tuple(matched), tuple(unmatched)


def _strip_scaffolding_loop(clause):
    """Reference: repeat passes over the scaffold patterns until one pass
    changes nothing."""
    changed = True
    while changed:
        changed = False
        for rx in _SCAFFOLD_RES:
            new = rx.sub("", clause, count=1)
            if new != clause:
                clause = new.lstrip(" ,")
                changed = True
    return clause


class TestIntersect:
    """Partitions of the left operand against the right one."""

    @given(
        st.lists(st.sampled_from(PHRASES), max_size=6),
        st.lists(st.sampled_from(PHRASES), max_size=6),
    )
    def test_count_bounded_and_complements_unmatched(self, left, right):
        m = LexicalMatcher()
        a = ObservationSet.from_phrases(left, Role.MODEL)
        b = ObservationSet.from_phrases(right, Role.REPORT)
        matched, unmatched = m.partition(a, b)
        assert 0 <= len(matched) <= len(a)
        assert len(matched) + len(unmatched) == len(a)

    def test_left_operand_counts_once(self, plain_matcher):
        a = ObservationSet.from_phrases(["effusion"], Role.MODEL)
        b = ObservationSet.from_phrases(
            ["effusion", "the effusion"], Role.REPORT
        )
        matched, unmatched = plain_matcher.partition(a, b)
        assert len(matched) == 1 and unmatched == ()

    @pytest.mark.parametrize("synonyms", [None, SynonymTable.empty()])
    @given(
        st.lists(st.sampled_from(PHRASES + VARIANTS), max_size=8),
        st.lists(st.sampled_from(PHRASES + VARIANTS), max_size=8),
    )
    def test_equals_pairwise_matches(self, synonyms, left, right):
        m = LexicalMatcher(synonyms)
        a = ObservationSet.from_phrases(left, Role.MODEL)
        b = ObservationSet.from_phrases(right, Role.REPORT)
        assert m.partition(a, b) == _pairwise_partition(a, b, m)


class TestScaffolding:
    def test_pre_check_covers_every_pattern(self):
        for rx in _SCAFFOLD_RES:
            assert any(rx.match(s) for s in SCAFFOLDS), rx.pattern
        for s in SCAFFOLDS:
            clause = f"{s} edema"
            assert _strip_scaffolding(clause) == _strip_scaffolding_loop(clause) != clause

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(SCAFFOLDS),
                st.sampled_from(["", " ", ", ", " ,  ", "\t"]),
                st.sampled_from(["lower", "upper", "title", "keep"]),
            ),
            max_size=4,
        ),
        st.sampled_from(PHRASES + VARIANTS + ["", "there", "first-line tube"]),
        st.sampled_from(["", " ", "  "]),
    )
    def test_equals_loop(self, prefixes, finding, lead):
        cased = {"lower": str.lower, "upper": str.upper, "title": str.title}
        clause = lead + "".join(
            cased.get(case, str)(word) + sep + " " for word, sep, case in prefixes
        ) + finding
        assert _strip_scaffolding(clause) == _strip_scaffolding_loop(clause)


# clauses whose observations come from scaffold stripping, negation folding
# and conjunction splitting
MEMO_CLAUSES = (
    PHRASES + VARIANTS
    + [f"{lead} {p}" for lead in SCAFFOLDS for p in ("cardiomegaly", "no edema")]
    + ["no pleural effusion or pneumothorax", "atelectasis and edema",
       "without edema, effusion or pneumothorax", "heart size is normal"]
)


class TestClauseMemo:
    REPORT = "There is mild cardiomegaly. No pneumothorax, clear lungs."

    def test_repeat_returns_same_tuple(self):
        first = _clause_observations(" no pneumothorax or edema")
        assert isinstance(first, tuple) and len(first) == 2
        assert _clause_observations(" no pneumothorax or edema") is first

    def test_roles_kept_apart(self):
        m = LexicalMatcher()
        report = m.extract(self.REPORT, Role.REPORT)
        gt = m.extract(self.REPORT, Role.GROUND_TRUTH)
        assert report.role is Role.REPORT and gt.role is Role.GROUND_TRUTH

    @given(
        st.lists(
            st.tuples(st.sampled_from(MEMO_CLAUSES), st.sampled_from([", ", ". ", "; "])),
            min_size=1, max_size=8,
        )
    )
    def test_equals_unmemoised(self, clauses):
        text = "".join(c + sep for c, sep in clauses)
        memoised = [lexical_extract(text, Role.MODEL) for _ in range(2)]
        with patch.object(
            observations, "_clause_observations", _clause_observations.__wrapped__
        ):
            fresh = lexical_extract(text, Role.MODEL)
        assert memoised == [fresh, fresh]

    def test_bounded(self):
        maxsize = _clause_observations.cache_info().maxsize
        _clause_observations.cache_clear()
        for i in range(maxsize + 100):
            _clause_observations(f"finding {i}")
        assert _clause_observations.cache_info().currsize <= maxsize


class TestReferenceMemo:
    REPORT = "There is mild cardiomegaly. No pneumothorax, clear lungs."
    REFERENCES = (Role.REPORT, Role.GROUND_TRUTH)

    @pytest.fixture()
    def counted(self, monkeypatch):
        """Count `lexical_extract` calls by (text, role)."""
        calls: dict[tuple[str, Role], int] = {}

        def counting(text, role):
            calls[text, role] = calls.get((text, role), 0) + 1
            return lexical_extract(text, role)

        monkeypatch.setattr(observations, "lexical_extract", counting)
        return calls

    @pytest.mark.parametrize("role", REFERENCES)
    def test_repeat_returns_same_set(self, role):
        m = LexicalMatcher()
        first = m.extract(self.REPORT, role)
        assert m.extract(self.REPORT, role) is first

    def test_one_extraction_per_text_and_role(self, counted):
        m = LexicalMatcher()
        texts = [self.REPORT, "Pleural effusion.", "No edema, no pneumothorax."]
        for _ in range(3):
            for text in texts:
                for role in self.REFERENCES:
                    m.extract(text, role)
        assert counted == {(t, r): 1 for t in texts for r in self.REFERENCES}

    def test_model_texts_extracted_every_call(self, counted):
        m = LexicalMatcher()
        sets = [m.extract(self.REPORT, Role.MODEL) for _ in range(3)]
        assert counted == {(self.REPORT, Role.MODEL): 3}
        assert sets[0] == sets[1] == sets[2]

    def test_matchers_keep_their_own_memo(self):
        first = LexicalMatcher().extract(self.REPORT, Role.REPORT)
        assert LexicalMatcher().extract(self.REPORT, Role.REPORT) is not first

    def test_empty_reference_rejected_every_call(self, counted):
        m = LexicalMatcher()
        for _ in range(2):
            with pytest.raises(ValueError):
                m.extract("  ", Role.REPORT)
        assert counted == {("  ", Role.REPORT): 2}

    def test_threads_share_one_set_per_key(self):
        # more threads than cores, the same key order and a short switch
        # interval, so threads miss the same key at once: each key must
        # still end with one set
        m = LexicalMatcher()
        texts = [f"{c}. {d}." for c in MEMO_CLAUSES[:12] for d in ("edema", "no edema")]
        keys = [(t, r) for t in texts for r in self.REFERENCES]
        barrier = threading.Barrier(8)
        results: list[list[ObservationSet]] = []

        def work():
            barrier.wait(timeout=10)
            results.append([m.extract(t, r) for t, r in keys])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(results) == 8
        for got in results:
            for key, obs in zip(keys, got):
                assert obs is m.extract(*key)
                assert obs == lexical_extract(*key)

    @given(
        st.lists(
            st.tuples(st.sampled_from(MEMO_CLAUSES), st.sampled_from([", ", ". ", "; "])),
            min_size=1, max_size=8,
        ),
        st.sampled_from(REFERENCES),
    )
    def test_equals_fresh_extraction(self, clauses, role):
        m = LexicalMatcher()
        text = "".join(c + sep for c, sep in clauses)
        memoised = [m.extract(text, role) for _ in range(2)]
        assert memoised == [lexical_extract(text, role)] * 2
