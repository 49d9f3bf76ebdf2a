"""SDA adapters: Hive/HDFS, a second HANA instance, the SOE cluster, CSV.

"SDA enables federation to a huge variety of different data sources"
(Figure 4). Each adapter declares its capabilities — ``filter`` (simple
conjunct pushdown), ``aggregate`` (grouped aggregation pushdown), ``sql``
(full statement pushdown) — and the SDA frontend routes accordingly.
"""

from __future__ import annotations

import operator
from pathlib import Path
from typing import Any

from repro.core import types as dt
from repro.core.schema import ColumnSpec, TableSchema
from repro.errors import FederationError
from repro.federation.sda import FilterTriple

_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class HanaAdapter:
    """Another repro :class:`Database` instance as a remote source."""

    def __init__(self, name: str, database: Any) -> None:
        self.name = name
        self.database = database

    def capabilities(self) -> set[str]:
        return {"filter", "aggregate", "sql"}

    def table_schema(self, remote_table: str) -> TableSchema:
        return self.database.catalog.table(remote_table).schema

    def scan(self, remote_table: str, filters: list[FilterTriple] | None = None) -> list[list[Any]]:
        sql = f"SELECT * FROM {remote_table}"
        if filters:
            sql += " WHERE " + " AND ".join(
                f"{column} {op} {_sql_literal(value)}" for column, op, value in filters
            )
        return self.database.execute(sql).rows

    def aggregate(
        self,
        remote_table: str,
        group_by: list[str],
        aggregates: list[tuple[str, str | None]],
        filters: list[FilterTriple],
    ) -> list[list[Any]]:
        select_parts = list(group_by)
        for op, column in aggregates:
            select_parts.append(f"{op.upper()}({column if column else '*'})")
        sql = f"SELECT {', '.join(select_parts)} FROM {remote_table}"
        if filters:
            sql += " WHERE " + " AND ".join(
                f"{column} {op} {_sql_literal(value)}" for column, op, value in filters
            )
        if group_by:
            sql += " GROUP BY " + ", ".join(group_by)
        return self.database.execute(sql).rows

    def execute_sql(self, sql: str) -> list[list[Any]]:
        return self.database.execute(sql).rows


class HiveAdapter:
    """A :class:`~repro.hadoop.hive.HiveServer` as a remote source."""

    def __init__(self, name: str, hive: Any) -> None:
        self.name = name
        self.hive = hive

    def capabilities(self) -> set[str]:
        return {"filter", "aggregate", "sql"}

    def table_schema(self, remote_table: str) -> TableSchema:
        return self.hive.table(remote_table).schema()

    def scan(self, remote_table: str, filters: list[FilterTriple] | None = None) -> list[list[Any]]:
        sql = f"SELECT * FROM {remote_table}"
        if filters:
            sql += " WHERE " + " AND ".join(
                f"{column} {op} {_sql_literal(value)}" for column, op, value in filters
            )
        return self.hive.execute(sql).rows

    def aggregate(
        self,
        remote_table: str,
        group_by: list[str],
        aggregates: list[tuple[str, str | None]],
        filters: list[FilterTriple],
    ) -> list[list[Any]]:
        select_parts = list(group_by)
        for op, column in aggregates:
            select_parts.append(f"{op.upper()}({column if column else '*'})")
        sql = f"SELECT {', '.join(select_parts)} FROM {remote_table}"
        if filters:
            sql += " WHERE " + " AND ".join(
                f"{column} {op} {_sql_literal(value)}" for column, op, value in filters
            )
        if group_by:
            sql += " GROUP BY " + ", ".join(group_by)
        return self.hive.execute(sql).rows

    def execute_sql(self, sql: str) -> list[list[Any]]:
        return self.hive.execute(sql).rows


class SoeAdapter:
    """The SOE cluster as a remote source (filter + aggregate pushdown)."""

    def __init__(self, name: str, soe: Any) -> None:
        self.name = name
        self.soe = soe

    def capabilities(self) -> set[str]:
        return {"filter", "aggregate"}

    def table_schema(self, remote_table: str) -> TableSchema:
        meta = self.soe.catalog.table(remote_table.lower())
        return TableSchema([ColumnSpec(column, dt.VARCHAR) for column in meta.columns])

    def scan(self, remote_table: str, filters: list[FilterTriple] | None = None) -> list[list[Any]]:
        from repro.hadoop.rdd import SoeTableRdd

        rdd = SoeTableRdd(self.soe, remote_table)
        for column, op, value in filters or []:
            rdd = rdd.filter(column, op, value)
        return [list(row) for row in rdd.rows().collect()]

    def aggregate(
        self,
        remote_table: str,
        group_by: list[str],
        aggregates: list[tuple[str, str | None]],
        filters: list[FilterTriple],
    ) -> list[list[Any]]:
        rows, _cost = self.soe.aggregate(
            remote_table,
            group_by=group_by,
            aggregates=aggregates,
            filters=filters,
        )
        return rows


class CsvAdapter:
    """Local CSV files (one table per file) — scan-only, no pushdown."""

    def __init__(self, name: str, directory: str | Path, schemas: dict[str, list[tuple[str, str]]]) -> None:
        self.name = name
        self.directory = Path(directory)
        self._schemas = {
            table.lower(): TableSchema(
                [ColumnSpec(n.lower(), dt.type_from_name(t)) for n, t in columns]
            )
            for table, columns in schemas.items()
        }

    def capabilities(self) -> set[str]:
        return set()

    def table_schema(self, remote_table: str) -> TableSchema:
        try:
            return self._schemas[remote_table.lower()]
        except KeyError:
            raise FederationError(f"unknown CSV table {remote_table!r}") from None

    def scan(self, remote_table: str, filters: list[FilterTriple] | None = None) -> list[list[Any]]:
        schema = self.table_schema(remote_table)
        path = self.directory / f"{remote_table.lower()}.csv"
        if not path.exists():
            raise FederationError(f"missing CSV file: {path}")
        rows = []
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.rstrip("\n")
                if not line:
                    continue
                raw = [None if field == "" else field for field in line.split(",")]
                rows.append(schema.coerce_row(raw))
        return rows


def _sql_literal(value: Any) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if hasattr(value, "isoformat"):
        return f"DATE '{value.isoformat()}'"
    escaped = str(value).replace("'", "''")
    return f"'{escaped}'"
