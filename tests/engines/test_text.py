"""Tests for the text engine: tokenizer, stemmer, index, analysis."""

import pytest

from repro.core.database import Database
from repro.core.session import Session
from repro.engines.text.analysis import (
    EntityExtractor,
    NaiveBayesClassifier,
    extract_to_table,
    sentiment_label,
    sentiment_score,
)
from repro.engines.text.index import InvertedIndex, create_text_index
from repro.engines.text.stemmer import stem_word
from repro.engines.text.tokenizer import sentences, tokenize, tokenize_terms
from repro.errors import TextEngineError


def test_tokenize_lowercases_and_splits():
    assert tokenize("Hello, World! It's 42.") == ["hello", "world", "it's", "42"]


def test_tokenize_terms_removes_stopwords_and_stems():
    terms = tokenize_terms("The databases are running quickly")
    assert "the" not in terms
    assert "databas" in terms  # stemmed
    assert "run" in terms


def test_sentences():
    assert sentences("One. Two! Three?") == ["One.", "Two!", "Three?"]


@pytest.mark.parametrize(
    "word,stem",
    [
        ("caresses", "caress"),
        ("ponies", "poni"),
        ("running", "run"),
        ("agreed", "agree"),
        ("databases", "databas"),
        ("happy", "happi"),
        ("relational", "relate"),
        ("cat", "cat"),
    ],
)
def test_stemmer_cases(word, stem):
    assert stem_word(word) == stem


def test_inverted_index_add_remove():
    index = InvertedIndex("docs", "body")
    index.add_document(("p0", 0), "fast database engine")
    index.add_document(("p0", 1), "slow file system")
    assert index.lookup("database") == {("p0", 0)}
    assert index.lookup("database engine") == {("p0", 0)}
    assert index.lookup("database file") == set()
    index.remove_document(("p0", 0))
    assert index.lookup("database") == set()
    assert index.document_count == 1


def test_index_reindex_on_same_docid():
    index = InvertedIndex("docs", "body")
    index.add_document(("p0", 0), "alpha")
    index.add_document(("p0", 0), "beta")
    assert index.lookup("alpha") == set()
    assert index.lookup("beta") == {("p0", 0)}


def test_bm25_ranks_exact_topic_higher():
    index = InvertedIndex("docs", "body")
    index.add_document(("p0", 0), "database database database tuning")
    index.add_document(("p0", 1), "database administration for beginners and experts everywhere")
    index.add_document(("p0", 2), "cooking recipes")
    ranked = index.score("database")
    assert [doc for doc, _score in ranked][0] == ("p0", 0)
    assert ("p0", 2) not in dict(ranked)


def test_create_text_index_maintains_on_dml():
    db = Database()
    db.execute("CREATE TABLE notes (id INT, body VARCHAR)")
    db.execute("INSERT INTO notes VALUES (1, 'graph processing'), (2, 'text processing')")
    index = create_text_index(db, "notes", "body")
    assert index.document_count == 2
    db.execute("INSERT INTO notes VALUES (3, 'stream processing')")
    assert index.document_count == 3
    db.execute("DELETE FROM notes WHERE id = 1")
    assert db.query("SELECT id FROM notes WHERE CONTAINS(body, 'processing') ORDER BY id").rows == [[2], [3]]


def test_contains_sees_the_transactions_own_writes():
    db = Database()
    db.execute("CREATE TABLE docs (id INT, body VARCHAR)")
    db.execute("INSERT INTO docs VALUES (9, 'foo bar')")
    create_text_index(db, "docs", "body")
    session = Session(db)
    session.begin()
    # neither the inserted row nor the updated version is indexed before commit
    session.execute("INSERT INTO docs VALUES (1, 'foo')")
    session.execute("UPDATE docs SET id = 10 WHERE id = 9")
    query = "SELECT id FROM docs WHERE CONTAINS(body, 'foo') ORDER BY id"
    assert session.execute(query).rows == [[1], [10]]
    assert session.execute("DELETE FROM docs WHERE CONTAINS(body, 'foo')").rowcount == 2
    session.commit()
    assert db.query("SELECT COUNT(*) FROM docs").scalar() == 0


def test_create_text_index_validates(db=None):
    database = Database()
    database.execute("CREATE TABLE n (id INT)")
    with pytest.raises(TextEngineError):
        create_text_index(database, "n", "missing")


def test_contains_via_index_respects_transactions():
    db = Database()
    db.execute("CREATE TABLE notes (id INT, body VARCHAR)")
    create_text_index(db, "notes", "body")
    txn = db.begin()
    db.table("notes").insert([1, "secret database"], txn)
    # uncommitted row is not in the index yet
    assert db.query("SELECT COUNT(*) FROM notes WHERE CONTAINS(body, 'database')").scalar() == 0
    db.commit(txn)
    assert db.query("SELECT COUNT(*) FROM notes WHERE CONTAINS(body, 'database')").scalar() == 1


def test_entity_extraction_types():
    text = "Contact Dr. Jones of Initech Inc at a.b@example.com, paid $5,000 on 2014-05-01 (up 12%)"
    entities = {(e.entity_type, e.text) for e in EntityExtractor().extract(text)}
    types = {t for t, _ in entities}
    assert {"PERSON", "COMPANY", "EMAIL", "MONEY", "DATE", "PERCENT"} <= types


def test_entity_extraction_custom_rule():
    extractor = EntityExtractor(rules=[])
    extractor.add_rule("TICKET", r"TKT-\d+")
    found = extractor.extract("see TKT-123 and TKT-9")
    assert [e.text for e in found] == ["TKT-123", "TKT-9"]


def test_extract_to_table_bridges_to_relational():
    db = Database()
    db.execute("CREATE TABLE mails (id INT, body VARCHAR)")
    db.execute("INSERT INTO mails VALUES (1, 'invoice from Initech Inc over $99'), (2, 'hello')")
    count = extract_to_table(db, "mails", "body", key_column="id")
    assert count == 2
    rows = db.query(
        "SELECT source_key, entity_type FROM extracted_entities ORDER BY entity_type"
    ).rows
    assert rows == [["1", "COMPANY"], ["1", "MONEY"]]


def test_sentiment_polarity_and_negation():
    assert sentiment_score("this is great and excellent") > 0
    assert sentiment_score("terrible awful failure") < 0
    assert sentiment_score("not good") < 0
    assert sentiment_label("neutral words only") == "neutral"


def test_naive_bayes_classification():
    classifier = NaiveBayesClassifier()
    classifier.train(
        [
            ("great product works fine", "pos"),
            ("excellent quality very happy", "pos"),
            ("terrible broken bad", "neg"),
            ("awful failure poor quality", "neg"),
        ]
    )
    assert classifier.classify("happy with the excellent product") == "pos"
    assert classifier.classify("bad broken thing") == "neg"
    assert set(classifier.classes) == {"pos", "neg"}
    assert NaiveBayesClassifier().classify("anything") is None


def test_fuzzy_terms_and_lookup():
    index = InvertedIndex("docs", "body")
    index.add_document(("p0", 0), "database tuning guide")
    index.add_document(("p0", 1), "databse tunning guide")  # typos
    index.add_document(("p0", 2), "cooking recipes")
    # exact lookup misses the typo document
    assert index.lookup("database") == {("p0", 0)}
    # fuzzy lookup (1 edit) catches it
    assert index.lookup_fuzzy("database") == {("p0", 0), ("p0", 1)}
    assert index.lookup_fuzzy("database cooking") == set()
    variants = index.fuzzy_terms("databas", max_distance=1)
    assert "databas" in variants or "databs" in variants or variants


def test_fuzzy_distance_banding():
    index = InvertedIndex("docs", "body")
    index.add_document(("p0", 0), "alpha")
    assert index.fuzzy_terms("alphaxx", max_distance=1) == []
    assert index.fuzzy_terms("alphax", max_distance=1) == ["alpha"]


def test_pos_tagging_basic_sentence():
    from repro.engines.text.postag import pos_tag

    tagged = dict(pos_tag("the quick engine quickly processes 42 documents"))
    assert tagged["the"] == "DET"
    assert tagged["quickly"] == "ADV"
    assert tagged["42"] == "NUM"
    assert tagged["documents"] == "NOUN"
    assert tagged["processes"] in ("VERB", "NOUN")


def test_pos_contextual_rules():
    from repro.engines.text.postag import pos_tag

    tagged = dict(pos_tag("they run because the run was scheduled"))
    tags = pos_tag("they run")
    assert tags[1][1] == "VERB"       # after a pronoun
    tags = pos_tag("the run")
    assert tags[1][1] == "NOUN"       # after a determiner


def test_noun_phrase_extraction():
    from repro.engines.text.postag import noun_phrases

    phrases = noun_phrases("the reliable compression engine beats a naive implementation")
    joined = " | ".join(phrases)
    assert "compression engine" in joined
    assert "implementation" in joined
