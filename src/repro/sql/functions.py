"""Scalar function registry and the built-in function library.

The registry is the extension point the paper's "business application
specific libraries/extensions in the DB layer" (Section III) plug into:
besides the classical string/math/date functions, it hosts

* ``CONVERT_CURRENCY`` / ``CONVERT_UNIT`` — business logic pushed down into
  the database (the paper's flagship pushdown examples),
* geo functions ``ST_*`` (Section II.F),
* document functions ``DOC_*`` (Section II.H),
* ``CONTAINS`` text matching (Section II.C; the planner swaps in the
  inverted index when one exists),
* hierarchy functions ``HIER_*`` registered by the graph engine at
  database start-up (Section II.E).

Engines register additional functions at runtime via
:meth:`FunctionRegistry.register`.
"""

from __future__ import annotations

import datetime as _dt
import math
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import ExpressionError
from repro.sql.context import ExecutionContext

ScalarImpl = Callable[..., Any]


#: Largest magnitude up to which every integer is exact as a float64.
_EXACT_FLOAT_INT = 2**53


def narrow_to_array(values: Sequence[Any]) -> np.ndarray:
    """Pack Python values into the tightest supported array dtype.

    Integers mixed with NULLs or floats become float64 only while every
    one of them is exact as a float; otherwise the array stays object.
    """
    if all(isinstance(v, bool) for v in values):
        return np.asarray(values, dtype=bool)
    if all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        return np.asarray(values, dtype=np.int64)
    if all(
        v is None
        or isinstance(v, float)
        or isinstance(v, int) and not isinstance(v, bool) and abs(v) <= _EXACT_FLOAT_INT
        for v in values
    ):
        return np.asarray(
            [np.nan if v is None else float(v) for v in values], dtype=np.float64
        )
    out = np.empty(len(values), dtype=object)
    for index, value in enumerate(values):
        out[index] = value
    return out


def _unbox(value: Any) -> Any:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and value != value:
        return None
    return value


class FunctionRegistry:
    """Named scalar functions callable from SQL expressions."""

    def __init__(self) -> None:
        self._functions: dict[str, dict[str, Any]] = {}
        register_builtins(self)

    def register(
        self,
        name: str,
        impl: ScalarImpl,
        vectorised: bool = False,
        needs_context: bool = False,
        null_propagates: bool = True,
    ) -> None:
        """Register a function.

        ``vectorised`` implementations receive NumPy arrays (plus the batch
        length and, when ``needs_context``, the :class:`ExecutionContext`)
        and return an array. Scalar implementations receive unboxed Python
        values per row; when ``null_propagates`` any NULL argument makes
        the result NULL without calling the implementation.
        """
        self._functions[name.upper()] = {
            "impl": impl,
            "vectorised": vectorised,
            "needs_context": needs_context,
            "null_propagates": null_propagates,
        }

    def call(
        self,
        name: str,
        args: list[np.ndarray],
        length: int,
        context: ExecutionContext,
    ) -> np.ndarray:
        """Apply a registered function over evaluated argument arrays."""
        entry = self._functions.get(name.upper())
        if entry is None:
            raise ExpressionError(f"unknown function {name.upper()}")
        impl = entry["impl"]
        if entry["vectorised"]:
            if entry["needs_context"]:
                return impl(args, length, context)
            return impl(args, length)
        results: list[Any] = []
        propagate = entry["null_propagates"]
        for index in range(length):
            row_args = [_unbox(array[index]) for array in args]
            if propagate and any(value is None for value in row_args):
                results.append(None)
                continue
            if entry["needs_context"]:
                results.append(impl(context, *row_args))
            else:
                results.append(impl(*row_args))
        return narrow_to_array(results)


# --------------------------------------------------------------------------
# built-ins
# --------------------------------------------------------------------------


def register_builtins(registry: FunctionRegistry) -> None:
    """Install the built-in function library into ``registry``."""
    # strings -------------------------------------------------------------
    registry.register("UPPER", lambda s: str(s).upper())
    registry.register("LOWER", lambda s: str(s).lower())
    registry.register("LENGTH", lambda s: len(str(s)))
    registry.register("TRIM", lambda s: str(s).strip())
    registry.register("SUBSTR", _substr)
    registry.register("REPLACE", lambda s, a, b: str(s).replace(str(a), str(b)))
    registry.register("CONCAT", lambda a, b: f"{a}{b}")
    registry.register("INSTR", lambda s, sub: str(s).find(str(sub)) + 1)

    # math ----------------------------------------------------------------
    registry.register("ABS", abs)
    registry.register("ROUND", lambda x, digits=0: round(float(x), int(digits)))
    registry.register("FLOOR", lambda x: math.floor(float(x)))
    registry.register("CEIL", lambda x: math.ceil(float(x)))
    registry.register("SQRT", lambda x: math.sqrt(float(x)))
    registry.register("POWER", lambda x, y: float(x) ** float(y))
    registry.register("MOD", lambda x, y: x % y)
    registry.register("LN", lambda x: math.log(float(x)))
    registry.register("EXP", lambda x: math.exp(float(x)))
    registry.register("SIGN", lambda x: (x > 0) - (x < 0))

    # conditional ------------------------------------------------------------
    registry.register("COALESCE", _coalesce, null_propagates=False)
    registry.register("IFNULL", lambda a, b: a if a is not None else b, null_propagates=False)
    registry.register("NULLIF", lambda a, b: None if a == b else a, null_propagates=False)
    registry.register("LEAST", lambda *xs: min(xs))
    registry.register("GREATEST", lambda *xs: max(xs))

    # conversion --------------------------------------------------------------
    registry.register("TO_DOUBLE", lambda x: float(x))
    registry.register("TO_INT", lambda x: int(float(x)))
    registry.register("TO_VARCHAR", lambda x: str(x))
    registry.register("TO_DATE", _to_date)

    # temporal ------------------------------------------------------------------
    registry.register("YEAR", lambda d: _as_date(d).year)
    registry.register("MONTH", lambda d: _as_date(d).month)
    registry.register("DAY", lambda d: _as_date(d).day)
    registry.register("ADD_DAYS", lambda d, n: _as_date(d) + _dt.timedelta(days=int(n)))
    registry.register("DAYS_BETWEEN", lambda a, b: (_as_date(b) - _as_date(a)).days)
    registry.register(
        "CURRENT_DATE",
        lambda context: context.parameters.get("current_date", _dt.date.today()),
        needs_context=True,
        null_propagates=False,
    )

    # business pushdown (Section III) ----------------------------------------------
    registry.register("CONVERT_CURRENCY", _convert_currency, needs_context=True)
    registry.register("CONVERT_UNIT", _convert_unit, needs_context=True)

    # documents (Section II.H) ---------------------------------------------------
    registry.register("DOC_EXTRACT", _doc_extract)
    registry.register("DOC_MATCH", _doc_match)

    # geo (Section II.F) — implemented by the geo engine, registered here so
    # every database has them without extra wiring.
    registry.register("ST_POINT", _st_point)
    registry.register("ST_DISTANCE", _st_distance)
    registry.register("ST_WITHIN_DISTANCE", _st_within_distance)
    registry.register("ST_CONTAINS", _st_contains)
    registry.register("ST_AREA", _st_area)

    # text (Section II.C) — fallback evaluation; the planner rewrites
    # CONTAINS over an indexed column into an index probe.
    registry.register("CONTAINS", _contains_fallback)


def _substr(s: Any, start: Any, length: Any = None) -> str:
    text = str(s)
    begin = int(start) - 1
    if length is None:
        return text[begin:]
    return text[begin : begin + int(length)]


def _coalesce(*values: Any) -> Any:
    for value in values:
        if value is not None:
            return value
    return None


def _to_date(value: Any) -> _dt.date:
    if isinstance(value, _dt.datetime):
        return value.date()
    if isinstance(value, _dt.date):
        return value
    return _dt.date.fromisoformat(str(value))


def _as_date(value: Any) -> _dt.date:
    if isinstance(value, _dt.datetime):
        return value.date()
    if isinstance(value, _dt.date):
        return value
    return _dt.date.fromisoformat(str(value))


def _convert_currency(
    context: ExecutionContext, amount: Any, from_currency: Any, to_currency: Any
) -> float:
    """In-database currency conversion (the Section III example).

    Rates come from ``context.parameters['currency_rates']`` — a mapping
    ``(from, to) -> rate`` — or from a catalog table ``currency_rates``
    with columns (from_currency, to_currency, rate).
    """
    if from_currency == to_currency:
        return float(amount)
    rates = context.parameters.get("currency_rates")
    if rates is None:
        rates = _load_rates_from_catalog(context)
        context.parameters["currency_rates"] = rates
    rate = rates.get((from_currency, to_currency))
    if rate is None:
        inverse = rates.get((to_currency, from_currency))
        if inverse:
            rate = 1.0 / inverse
    if rate is None:
        raise ExpressionError(
            f"no conversion rate {from_currency!r} -> {to_currency!r}"
        )
    return float(amount) * rate


def _load_rates_from_catalog(context: ExecutionContext) -> dict[tuple[str, str], float]:
    database = context.database
    if database is None or not database.catalog.has_table("currency_rates"):
        return {}
    table = database.catalog.table("currency_rates")
    rows = table.scan_rows(context.snapshot_cid, context.own_tid,
                           columns=["from_currency", "to_currency", "rate"])
    return {(row[0], row[1]): float(row[2]) for row in rows}


def _convert_unit(context: ExecutionContext, amount: Any, from_unit: Any, to_unit: Any) -> float:
    """Unit conversion via ``context.parameters['unit_factors']``."""
    if from_unit == to_unit:
        return float(amount)
    factors = context.parameters.get("unit_factors", {})
    factor = factors.get((from_unit, to_unit))
    if factor is None:
        inverse = factors.get((to_unit, from_unit))
        factor = 1.0 / inverse if inverse else None
    if factor is None:
        raise ExpressionError(f"no unit factor {from_unit!r} -> {to_unit!r}")
    return float(amount) * factor


def _doc_extract(document: Any, path: Any) -> Any:
    from repro.columnstore.document import doc_extract

    return doc_extract(document, str(path))


def _doc_match(document: Any, path: Any, expected: Any) -> bool:
    from repro.columnstore.document import doc_match

    return doc_match(document, str(path), expected)


def _st_point(x: Any, y: Any) -> str:
    return f"POINT ({float(x)} {float(y)})"


def _geo(value: Any) -> Any:
    from repro.engines.geo.geometry import parse_wkt

    return parse_wkt(value) if isinstance(value, str) else value


def _st_distance(a: Any, b: Any) -> float:
    from repro.engines.geo.operations import distance

    return distance(_geo(a), _geo(b))


def _st_within_distance(a: Any, b: Any, limit: Any) -> bool:
    from repro.engines.geo.operations import within_distance

    return within_distance(_geo(a), _geo(b), float(limit))


def _st_contains(container: Any, contained: Any) -> bool:
    from repro.engines.geo.operations import contains

    return contains(_geo(container), _geo(contained))


def _st_area(geometry: Any) -> float:
    from repro.engines.geo.operations import area

    return area(_geo(geometry))


def _contains_fallback(text: Any, query: Any) -> bool:
    """Token-based CONTAINS used when no inverted index is available."""
    from repro.engines.text.tokenizer import tokenize_terms

    document_tokens = set(tokenize_terms(str(text)))
    query_tokens = tokenize_terms(str(query))
    return bool(query_tokens) and all(token in document_tokens for token in query_tokens)
