"""Query compilation: plans become generated Python source.

The paper's SOE "compiles the SQL statement into C code and translates it
into an executable binary format" (Section IV.A, following Dees & Sanders
[11]; Neumann [12] compiles to LLVM). The Python substitute performs the
same structural transformation: the whole operator pipeline is fused into
one generated function — column values land in local variables, predicates
and arithmetic become inline Python expressions, joins become hash-table
probes inside the fused loop, and aggregation accumulates into plain dicts.
No per-tuple AST walking, no operator dispatch.

Compared with the Volcano interpreter (:mod:`repro.sql.volcano`) this is
what "compiled" means here; benchmark E6 measures the gap.

Unsupported plan shapes raise :class:`CompileError`; callers fall back to
the vectorised engine.

**Relation to the adaptive optimizer** (``docs/OPTIMIZER.md``): the
compiler consumes the same feedback-annotated
:class:`~repro.sql.planner.QueryPlan` as the other engines, so a plan
re-ordered from observed cardinalities compiles to a correspondingly
better fused loop. Two deliberate differences: literal values are baked
into the generated source by ``repr``, so compiled functions are *not*
literal-patchable and the plan cache (:mod:`repro.sql.plancache`) caches
logical plans rather than compiled code; and the fused loop has no
per-operator boundary to measure, so compiled execution neither records
cardinality feedback nor triggers mid-query re-optimization — it is the
beneficiary of feedback gathered by the interpreted engines, not a
source of it.
"""

from __future__ import annotations

import re
from typing import Any, Callable

import numpy as np

from repro.columnstore.table import ColumnTable
from repro.errors import SqlError
from repro.sql import ast
from repro.sql.context import ExecutionContext
from repro.sql.planner import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    PlanNode,
    ProjectNode,
    QueryPlan,
    ScanNode,
    SortNode,
)


class CompileError(SqlError):
    """The plan shape is outside the compiler's supported subset."""


def _sanitise(name: str) -> str:
    return re.sub(r"[^0-9A-Za-z_]", "_", name)


def _is_non_null_literal(expr: ast.Expr) -> bool:
    return isinstance(expr, ast.Literal) and expr.value is not None


class _Emitter:
    """Indented source-line collector."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.depth = 0

    def emit(self, line: str = "") -> None:
        self.lines.append("    " * self.depth + line if line else "")

    def source(self) -> str:
        return "\n".join(self.lines)


class _ExprCompiler:
    """Translate expression ASTs to Python source fragments."""

    def __init__(self, env: dict[str, str], constants: dict[str, Any]) -> None:
        self.env = env  # qualified column name -> local variable
        self.constants = constants

    def _const(self, value: Any) -> str:
        name = f"_k{len(self.constants)}"
        self.constants[name] = value
        return name

    def compile(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.Literal):
            if expr.value is None or isinstance(expr.value, (bool, int, float)):
                return repr(expr.value)
            if isinstance(expr.value, str):
                return repr(expr.value)
            return self._const(expr.value)
        if isinstance(expr, ast.ColumnRef):
            return self._resolve(expr)
        if isinstance(expr, ast.UnaryOp):
            inner = self.compile(expr.operand)
            if expr.op == "NOT":
                return f"(not ({inner}))"
            return f"_neg({inner})"
        if isinstance(expr, ast.BinaryOp):
            return self._binary(expr)
        if isinstance(expr, ast.IsNull):
            inner = self.compile(expr.operand)
            return f"(({inner}) is not None)" if expr.negated else f"(({inner}) is None)"
        if isinstance(expr, ast.InList):
            operand = self.compile(expr.operand)
            items = ", ".join(self.compile(item) for item in expr.items)
            test = f"_in({operand}, ({items},))"
            return f"(not {test})" if expr.negated else test
        if isinstance(expr, ast.Between):
            operand = self.compile(expr.operand)
            low = self.compile(expr.low)
            high = self.compile(expr.high)
            test = f"_between({operand}, {low}, {high})"
            return f"(not {test})" if expr.negated else test
        if isinstance(expr, ast.CaseWhen):
            result = (
                self.compile(expr.otherwise) if expr.otherwise is not None else "None"
            )
            for condition, branch in reversed(expr.branches):
                result = f"({self.compile(branch)} if ({self.compile(condition)}) else {result})"
            return result
        if isinstance(expr, ast.FunctionCall):
            if expr.name in ast.AGGREGATE_FUNCTIONS:
                raise CompileError("aggregate call outside aggregation stage")
            args = ", ".join(self.compile(arg) for arg in expr.args)
            return f"_call({expr.name!r}, ({args},))" if expr.args else f"_call({expr.name!r}, ())"
        raise CompileError(f"cannot compile expression {type(expr).__name__}")

    def _resolve(self, ref: ast.ColumnRef) -> str:
        if ref.table is not None:
            key = f"{ref.table}.{ref.name}"
            if key in self.env:
                return self.env[key]
            raise CompileError(f"unknown column {key}")
        if ref.name in self.env:
            return self.env[ref.name]
        matches = [key for key in self.env if key.endswith(f".{ref.name}")]
        if len(matches) == 1:
            return self.env[matches[0]]
        raise CompileError(f"cannot resolve column {ref.name!r}")

    def _binary(self, expr: ast.BinaryOp) -> str:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        op = expr.op
        if op == "AND":
            return f"(({left}) and ({right}))"
        if op == "OR":
            return f"(({left}) or ({right}))"
        if op in ("=", "<>", "<", "<=", ">", ">="):
            python_op = {"=": "==", "<>": "!="}.get(op, op)
            guards = []
            if not _is_non_null_literal(expr.left):
                guards.append(f"({left}) is not None")
            if not _is_non_null_literal(expr.right):
                guards.append(f"({right}) is not None")
            guards.append(f"({left}) {python_op} ({right})")
            return f"({' and '.join(guards)})"
        if op == "LIKE":
            if isinstance(expr.right, ast.Literal) and isinstance(expr.right.value, str):
                pattern = re.escape(expr.right.value).replace("%", ".*").replace("_", ".")
                regex = self._const(re.compile(f"^{pattern}$", re.DOTALL))
                return f"(({left}) is not None and {regex}.match(str({left})) is not None)"
            raise CompileError("LIKE requires a literal pattern")
        if op == "||":
            return f"_concat({left}, {right})"
        helper = {"+": "_add", "-": "_sub", "*": "_mul", "/": "_div", "%": "_mod"}.get(op)
        if helper is None:
            raise CompileError(f"unknown operator {op!r}")
        return f"{helper}({left}, {right})"


_RUNTIME_HELPERS = """
def _add(a, b):
    return None if a is None or b is None else a + b
def _sub(a, b):
    return None if a is None or b is None else a - b
def _mul(a, b):
    return None if a is None or b is None else a * b
def _div(a, b):
    return None if a is None or b is None or b == 0 else a / b
def _mod(a, b):
    return None if a is None or b is None or b == 0 else a % b
def _neg(a):
    return None if a is None else -a
def _concat(a, b):
    return None if a is None or b is None else str(a) + str(b)
def _in(value, items):
    return value is not None and value in items
def _between(value, low, high):
    return value is not None and low is not None and high is not None and low <= value <= high
"""


class CompiledQuery:
    """A compiled plan: generated source plus a ready-to-call function."""

    def __init__(self, source: str, function: Callable[[ExecutionContext], list[list[Any]]], output_names: list[str]) -> None:
        self.source = source
        self._function = function
        self.output_names = output_names

    def run(self, context: ExecutionContext) -> list[list[Any]]:
        """Execute the compiled query."""
        return self._function(context)


def compile_plan(plan: QueryPlan, context: ExecutionContext) -> CompiledQuery:
    """Generate and compile Python code for ``plan``."""
    compiler = _PlanCompiler(plan, context)
    return compiler.build()


class _PlanCompiler:
    def __init__(self, plan: QueryPlan, context: ExecutionContext) -> None:
        self.plan = plan
        self.context = context
        self.emitter = _Emitter()
        self.constants: dict[str, Any] = {}
        self._var_counter = 0

    def _fresh(self, prefix: str) -> str:
        self._var_counter += 1
        return f"_{prefix}{self._var_counter}"

    # -- plan-shape analysis -------------------------------------------------

    def build(self) -> CompiledQuery:
        node = self.plan.root
        limit: LimitNode | None = None
        sort: SortNode | None = None
        distinct = False
        if isinstance(node, LimitNode):
            limit = node
            node = node.child
        if isinstance(node, SortNode):
            sort = node
            node = node.child
        if isinstance(node, DistinctNode):
            distinct = True
            node = node.child
        if not isinstance(node, ProjectNode):
            raise CompileError("expected a projection at the top of the plan")
        project = node
        node = project.child

        having: FilterNode | None = None
        aggregate: AggregateNode | None = None
        if isinstance(node, FilterNode) and isinstance(node.child, AggregateNode):
            having = node
            node = node.child
        if isinstance(node, AggregateNode):
            aggregate = node
            node = node.child

        residual_filters: list[ast.Expr] = []
        while isinstance(node, FilterNode):
            residual_filters.append(node.predicate)
            node = node.child

        driver, joins = self._flatten_joins(node)

        emitter = self.emitter
        emitter.emit("def _compiled(context):")
        emitter.depth += 1
        emitter.emit("db = context.database")

# build hash tables for join right sides
        join_tables: list[tuple[JoinNode, str, list[str]]] = []
        for join in joins:
            table_var, right_env = self._emit_build_side(join)
            join_tables.append((join, table_var, list(right_env)))

        # aggregation state / output list
        if aggregate is not None:
            emitter.emit("_groups = {}")
        else:
            emitter.emit("_out = []")

        # the fused driver loop
        driver_env = self._emit_scan_loop(driver)
        env = dict(driver_env)

        depth_after_probes = emitter.depth
        for join, table_var, right_keys in join_tables:
            env = self._emit_probe(join, table_var, right_keys, env)
            depth_after_probes = emitter.depth

        expr_compiler = _ExprCompiler(env, self.constants)
        for predicate in residual_filters:
            emitter.emit(f"if not ({expr_compiler.compile(predicate)}):")
            emitter.depth += 1
            emitter.emit("continue")
            emitter.depth -= 1

        if aggregate is not None:
            self._emit_accumulate(aggregate, expr_compiler)
        else:
            self._emit_projection_row(project, expr_compiler)

        # close all loop bodies
        emitter.depth = 1

        if aggregate is not None:
            self._emit_group_epilogue(aggregate, having, project)

        self._emit_epilogue(project, distinct, sort, limit)
        emitter.emit("return _out")
        emitter.depth -= 1

        source = _RUNTIME_HELPERS + "\n" + emitter.source()
        namespace: dict[str, Any] = {"np": np}
        namespace.update(self.constants)
        namespace["_call"] = self._make_call_helper()
        exec(compile(source, "<compiled-query>", "exec"), namespace)  # noqa: S102
        return CompiledQuery(source, namespace["_compiled"], self.plan.output_names)

    def _make_call_helper(self) -> Callable[[str, tuple], Any]:
        registry = self.context.functions
        context = self.context

        def _call(name: str, args: tuple) -> Any:
            arrays = [np.asarray([value], dtype=object) for value in args]
            result = registry.call(name, arrays, 1, context)
            value = result[0]
            if isinstance(value, np.generic):
                value = value.item()
            if isinstance(value, float) and value != value:
                return None
            return value

        return _call

    def _flatten_joins(self, node: PlanNode) -> tuple[ScanNode, list[JoinNode]]:
        joins: list[JoinNode] = []
        while isinstance(node, JoinNode):
            if node.kind not in ("inner", "left"):
                raise CompileError(f"cannot compile {node.kind} join")
            if not node.equi:
                raise CompileError("cannot compile non-equi join")
            if not isinstance(node.right, ScanNode):
                raise CompileError("join build side must be a base-table scan")
            joins.append(node)
            node = node.left
        if not isinstance(node, ScanNode):
            raise CompileError(f"driver must be a base-table scan, got {type(node).__name__}")
        if not node.table:
            raise CompileError("cannot compile FROM-less select")
        joins.reverse()
        return node, joins

    # -- code emission ------------------------------------------------------------

    def _scan_columns(self, scan: ScanNode) -> tuple[str, dict[str, str]]:
        """Emit column materialisation for a scan; returns (rowvar, env)."""
        table = self.context.database.catalog.table(scan.table)
        if not isinstance(table, ColumnTable):
            raise CompileError("compiler supports column tables only")
        const = f"_tbl_{_sanitise(scan.alias)}"
        self.constants[const] = table
        env = {
            f"{scan.alias}.{name.lower()}": f"v_{_sanitise(scan.alias)}_{_sanitise(name.lower())}"
            for name in scan.columns
        }
        return const, env

    def _emit_partition_loop(self, scan: ScanNode, table_const: str, env: dict[str, str]) -> None:
        emitter = self.emitter
        alias = _sanitise(scan.alias)
        emitter.emit(f"for _part_{alias} in {table_const}.partitions:")
        emitter.depth += 1
        emitter.emit(
            f"_pos_{alias} = _part_{alias}.visible_positions(context.snapshot_cid, context.own_tid)"
        )
        for name in scan.columns:
            variable = env[f"{scan.alias}.{name.lower()}"]
            emitter.emit(
                f"_col_{variable} = _part_{alias}.values_at({name.lower()!r}, _pos_{alias})"
            )
        emitter.emit(f"for _i_{alias} in range(len(_pos_{alias})):")
        emitter.depth += 1
        for name in scan.columns:
            variable = env[f"{scan.alias}.{name.lower()}"]
            emitter.emit(f"{variable} = _col_{variable}[_i_{alias}]")
        if scan.predicate is not None:
            expr_compiler = _ExprCompiler(env, self.constants)
            emitter.emit(f"if not ({expr_compiler.compile(scan.predicate)}):")
            emitter.depth += 1
            emitter.emit("continue")
            emitter.depth -= 1

    def _emit_build_side(self, join: JoinNode) -> tuple[str, dict[str, str]]:
        """Materialise the join's right side into a hash table."""
        scan = join.right
        assert isinstance(scan, ScanNode)
        table_const, env = self._scan_columns(scan)
        hash_var = f"_ht_{_sanitise(scan.alias)}"
        emitter = self.emitter
        emitter.emit(f"{hash_var} = {{}}")
        self._emit_partition_loop(scan, table_const, env)
        expr_compiler = _ExprCompiler(env, self.constants)
        key_parts = ", ".join(expr_compiler.compile(right) for _l, right in join.equi)
        emitter.emit(f"_key = ({key_parts},)")
        emitter.emit("if not any(p is None for p in _key):")
        emitter.depth += 1
        values = ", ".join(env[key] for key in env)
        emitter.emit(f"{hash_var}.setdefault(_key, []).append(({values},))")
        emitter.depth -= 1
        emitter.depth -= 2  # close row loop and partition loop
        return hash_var, env

    def _emit_scan_loop(self, scan: ScanNode) -> dict[str, str]:
        table_const, env = self._scan_columns(scan)
        self._emit_partition_loop(scan, table_const, env)
        return env

    def _emit_probe(
        self,
        join: JoinNode,
        hash_var: str,
        right_keys: list[str],
        env: dict[str, str],
    ) -> dict[str, str]:
        emitter = self.emitter
        expr_compiler = _ExprCompiler(env, self.constants)
        key_parts = ", ".join(expr_compiler.compile(left) for left, _r in join.equi)
        scan = join.right
        assert isinstance(scan, ScanNode)
        right_env = {
            key: f"v_{_sanitise(scan.alias)}_{_sanitise(key.split('.', 1)[1])}"
            for key in right_keys
        }
        probe = self._fresh("match")
        emitter.emit(f"_key = ({key_parts},)")
        if join.kind == "inner":
            emitter.emit(f"for {probe} in {hash_var}.get(_key, ()):")
        else:
            none_tuple = ", ".join("None" for _ in right_keys)
            emitter.emit(
                f"for {probe} in ({hash_var}.get(_key) or [({none_tuple},)]):"
            )
        emitter.depth += 1
        for index, key in enumerate(right_keys):
            emitter.emit(f"{right_env[key]} = {probe}[{index}]")
        merged = dict(env)
        merged.update(right_env)
        return merged

    def _emit_accumulate(self, aggregate: AggregateNode, expr_compiler: _ExprCompiler) -> None:
        emitter = self.emitter
        key_parts = ", ".join(expr_compiler.compile(expr) for expr, _n in aggregate.group)
        emitter.emit(f"_k = ({key_parts},)" if aggregate.group else "_k = ()")
        emitter.emit("_st = _groups.get(_k)")
        emitter.emit("if _st is None:")
        emitter.depth += 1
        inits = []
        for call, _name in aggregate.aggregates:
            if call.name == "COUNT" and call.distinct:
                inits.append("set()")
            elif call.name == "COUNT":
                inits.append("0")
            elif call.name == "AVG":
                inits.append("[0.0, 0]")
            else:
                inits.append("None")
        emitter.emit(f"_st = [{', '.join(inits)}]")
        emitter.emit("_groups[_k] = _st")
        emitter.depth -= 1
        for index, (call, _name) in enumerate(aggregate.aggregates):
            name = call.name
            if name == "COUNT" and (not call.args or isinstance(call.args[0], ast.Star)):
                emitter.emit(f"_st[{index}] += 1")
                continue
            value = expr_compiler.compile(call.args[0])
            emitter.emit(f"_v = {value}")
            emitter.emit("if _v is not None:")
            emitter.depth += 1
            if name == "COUNT" and call.distinct:
                emitter.emit(f"_st[{index}].add(_v)")
            elif name == "COUNT":
                emitter.emit(f"_st[{index}] += 1")
            elif name == "SUM":
                emitter.emit(f"_st[{index}] = _v if _st[{index}] is None else _st[{index}] + _v")
            elif name == "AVG":
                emitter.emit(f"_st[{index}][0] += _v")
                emitter.emit(f"_st[{index}][1] += 1")
            elif name == "MIN":
                emitter.emit(
                    f"if _st[{index}] is None or _v < _st[{index}]: _st[{index}] = _v"
                )
            elif name == "MAX":
                emitter.emit(
                    f"if _st[{index}] is None or _v > _st[{index}]: _st[{index}] = _v"
                )
            else:
                raise CompileError(f"unsupported aggregate {name}")
            emitter.depth -= 1

    def _emit_group_epilogue(
        self,
        aggregate: AggregateNode,
        having: FilterNode | None,
        project: ProjectNode,
    ) -> None:
        emitter = self.emitter
        emitter.emit("_out = []")
        emitter.emit("if not _groups and not " + repr(bool(aggregate.group)) + ":")
        emitter.depth += 1
        inits = []
        for call, _name in aggregate.aggregates:
            if call.name == "COUNT" and call.distinct:
                inits.append("set()")
            elif call.name == "COUNT":
                inits.append("0")
            elif call.name == "AVG":
                inits.append("[0.0, 0]")
            else:
                inits.append("None")
        emitter.emit(f"_groups[()] = [{', '.join(inits)}]")
        emitter.depth -= 1
        emitter.emit("for _k, _st in _groups.items():")
        emitter.depth += 1
        env: dict[str, str] = {}
        for index, (_expr, name) in enumerate(aggregate.group):
            variable = f"g_{_sanitise(name)}"
            emitter.emit(f"{variable} = _k[{index}]")
            env[name] = variable
        for index, (call, name) in enumerate(aggregate.aggregates):
            variable = f"a_{_sanitise(name)}"
            if call.name == "AVG":
                emitter.emit(
                    f"{variable} = (_st[{index}][0] / _st[{index}][1]) if _st[{index}][1] else None"
                )
            elif call.name == "COUNT" and call.distinct:
                emitter.emit(f"{variable} = len(_st[{index}])")
            else:
                emitter.emit(f"{variable} = _st[{index}]")
            env[name] = variable
        expr_compiler = _ExprCompiler(env, self.constants)
        if having is not None:
            emitter.emit(f"if not ({expr_compiler.compile(having.predicate)}):")
            emitter.depth += 1
            emitter.emit("continue")
            emitter.depth -= 1
        self._emit_projection_row(project, expr_compiler)
        emitter.depth -= 1

    def _emit_projection_row(self, project: ProjectNode, expr_compiler: _ExprCompiler) -> None:
        parts = ", ".join(
            expr_compiler.compile(expr) for expr, _name in list(project.items) + list(project.hidden)
        )
        self.emitter.emit(f"_out.append([{parts}])")

    def _emit_epilogue(
        self,
        project: ProjectNode,
        distinct: bool,
        sort: SortNode | None,
        limit: LimitNode | None,
    ) -> None:
        emitter = self.emitter
        names = [name for _e, name in list(project.items) + list(project.hidden)]
        if distinct:
            emitter.emit("_seen = set()")
            emitter.emit("_dedup = []")
            emitter.emit("for _row in _out:")
            emitter.depth += 1
            emitter.emit("_key = tuple(_row)")
            emitter.emit("if _key not in _seen:")
            emitter.depth += 1
            emitter.emit("_seen.add(_key)")
            emitter.emit("_dedup.append(_row)")
            emitter.depth -= 2
            emitter.emit("_out = _dedup")
        if sort is not None:
            for name, ascending in reversed(sort.keys):
                index = names.index(name)
                emitter.emit(
                    f"_out.sort(key=lambda r: (r[{index}] is None, r[{index}]), "
                    f"reverse={not ascending})"
                )
        visible = len(project.items)
        if len(names) > visible:
            emitter.emit(f"_out = [r[:{visible}] for r in _out]")
        if limit is not None:
            start = limit.offset or 0
            stop = start + limit.limit if limit.limit is not None else None
            emitter.emit(f"_out = _out[{start}:{stop if stop is not None else ''}]")
