"""Incrementally maintained inverted index over a table column.

Section II.C: "text processing is deeply integrated into the HANA engine"
and "the text analysis and feature extraction process is triggered
automatically when new or changed documents are brought into the data
management system". Accordingly :class:`InvertedIndex` registers itself as
a change listener on the table: committed inserts index the new document,
committed deletes unindex it — queries never see uncommitted text.

Documents are addressed as ``(partition name, row position)`` so the SQL
scan operator can intersect postings with MVCC-visible positions.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Any

from repro.columnstore.table import EVENT_DELETE, EVENT_INSERT, ColumnTable, TablePartition
from repro.engines.text.tokenizer import tokenize_terms
from repro.errors import TextEngineError

DocId = tuple[str, int]


def _edit_distance_at_most(a: str, b: str, limit: int) -> bool:
    """Banded Levenshtein: True iff distance(a, b) <= limit."""
    if a == b:
        return True
    if abs(len(a) - len(b)) > limit:
        return False
    previous = list(range(len(b) + 1))
    for i, char_a in enumerate(a, 1):
        current = [i] + [0] * len(b)
        row_min = i
        for j, char_b in enumerate(b, 1):
            current[j] = min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (char_a != char_b),
            )
            row_min = min(row_min, current[j])
        if row_min > limit:
            return False
        previous = current
    return previous[len(b)] <= limit


class InvertedIndex:
    """Term → postings index with document statistics for BM25."""

    def __init__(self, table_name: str, column: str) -> None:
        self.table_name = table_name
        self.column = column
        self._postings: dict[str, dict[DocId, int]] = {}
        self._doc_lengths: dict[DocId, int] = {}
        self._total_length = 0

    # -- sizes ----------------------------------------------------------------

    @property
    def document_count(self) -> int:
        return len(self._doc_lengths)

    @property
    def average_length(self) -> float:
        return self._total_length / self.document_count if self.document_count else 0.0

    # -- maintenance ---------------------------------------------------------------

    def add_document(self, doc_id: DocId, text: str | None) -> None:
        """Index one document (NULL text indexes as empty)."""
        if doc_id in self._doc_lengths:
            self.remove_document(doc_id)
        terms = tokenize_terms(text or "")
        counts = Counter(terms)
        for term, frequency in counts.items():
            self._postings.setdefault(term, {})[doc_id] = frequency
        self._doc_lengths[doc_id] = len(terms)
        self._total_length += len(terms)

    def remove_document(self, doc_id: DocId) -> None:
        """Remove a document's postings."""
        length = self._doc_lengths.pop(doc_id, None)
        if length is None:
            return
        self._total_length -= length
        empty_terms = []
        for term, postings in self._postings.items():
            if postings.pop(doc_id, None) is not None and not postings:
                empty_terms.append(term)
        for term in empty_terms:
            del self._postings[term]

    # -- queries --------------------------------------------------------------------

    def postings(self, term: str) -> dict[DocId, int]:
        """Raw postings for an already-normalised term."""
        return self._postings.get(term, {})

    def lookup(self, query: str) -> set[DocId]:
        """Documents containing *all* query terms (AND semantics)."""
        terms = tokenize_terms(query)
        if not terms:
            return set()
        result: set[DocId] | None = None
        for term in terms:
            docs = set(self._postings.get(term, {}))
            result = docs if result is None else result & docs
            if not result:
                return set()
        return result or set()

    def lookup_positions(self, query: str) -> dict[str, set[int]]:
        """Matching positions grouped by partition name (scan interface)."""
        grouped: dict[str, set[int]] = {}
        for partition_name, position in self.lookup(query):
            grouped.setdefault(partition_name, set()).add(position)
        return grouped

    def fuzzy_terms(self, term: str, max_distance: int = 1) -> list[str]:
        """Indexed terms within ``max_distance`` edits of ``term``.

        The paper's HANA offers fuzzy text search; this is the classical
        dictionary-expansion approach — cheap because the term dictionary
        is small relative to the corpus.
        """
        term = term.lower()
        matches = []
        for candidate in self._postings:
            if abs(len(candidate) - len(term)) > max_distance:
                continue
            if _edit_distance_at_most(term, candidate, max_distance):
                matches.append(candidate)
        return sorted(matches)

    def lookup_fuzzy(self, query: str, max_distance: int = 1) -> set[DocId]:
        """Documents matching every query term fuzzily (AND semantics)."""
        terms = tokenize_terms(query)
        if not terms:
            return set()
        result: set[DocId] | None = None
        for term in terms:
            docs: set[DocId] = set()
            for variant in self.fuzzy_terms(term, max_distance):
                docs |= set(self._postings.get(variant, {}))
            result = docs if result is None else result & docs
            if not result:
                return set()
        return result or set()

    def score(self, query: str, k1: float = 1.5, b: float = 0.75) -> list[tuple[DocId, float]]:
        """BM25-ranked documents for the query, best first."""
        terms = tokenize_terms(query)
        if not terms or not self.document_count:
            return []
        scores: dict[DocId, float] = {}
        n_docs = self.document_count
        avg_len = self.average_length or 1.0
        for term in terms:
            postings = self._postings.get(term)
            if not postings:
                continue
            idf = math.log(1.0 + (n_docs - len(postings) + 0.5) / (len(postings) + 0.5))
            for doc_id, frequency in postings.items():
                doc_len = self._doc_lengths[doc_id]
                tf = (frequency * (k1 + 1)) / (
                    frequency + k1 * (1 - b + b * doc_len / avg_len)
                )
                scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf
        return sorted(scores.items(), key=lambda item: (-item[1], item[0]))


def create_text_index(database: Any, table_name: str, column: str) -> InvertedIndex:
    """Create, register, and auto-maintain a text index on table.column.

    Existing committed rows are indexed immediately; a change listener
    keeps the index in sync with committed inserts and deletes.
    """
    table = database.catalog.table(table_name)
    if not isinstance(table, ColumnTable):
        raise TextEngineError("text indexes require a column table")
    if not table.schema.has_column(column):
        raise TextEngineError(f"no such column {column!r} on {table_name!r}")
    index = InvertedIndex(table.name, column.lower())
    column_position = table.schema.position(column)

    snapshot = database.txn_manager.last_committed_cid
    for partition in table.partitions:
        positions = partition.visible_positions(snapshot)
        values = partition.values_at(column, positions)
        for position, value in zip(positions, values):
            index.add_document((partition.name, int(position)), value)

    def listener(
        event: str,
        partition: TablePartition,
        positions: list[int],
        rows: list[list[Any]],
    ) -> None:
        for position, row in zip(positions, rows):
            if event == EVENT_INSERT:
                index.add_document((partition.name, position), row[column_position])
            elif event == EVENT_DELETE:
                index.remove_document((partition.name, position))

    table.on_change(listener)
    database.text_indexes[(table.name, column.lower())] = index
    return index
