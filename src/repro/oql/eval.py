"""Direct interpreter for the OQL subset.

The paper wrote a formal semantics for its OQL fragment "in order to
prove the translation to NRAe correct"; this interpreter plays that
role here — an independent oracle the translation's property tests
compare against.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

from repro.data.model import Bag, DataError, Record
from repro.data.operators import OpAvg, OpMax, OpMin, OpSum
from repro.nraenv.eval import EvalError
from repro.oql import ast


def eval_oql(
    program: ast.OqlNode,
    constants: Optional[Mapping[str, Any]] = None,
    env: Optional[Mapping[str, Any]] = None,
) -> Any:
    """Evaluate an OQL program or expression.

    ``constants`` maps named collections (class extents) to bags.
    """
    constants = constants or {}
    scope: Dict[str, Any] = dict(env or {})
    defines: Dict[str, Any] = {}
    if isinstance(program, ast.OqlProgram):
        for define in program.defines:
            defines[define.name] = _eval(define.query, scope, defines, constants)
        return _eval(program.query, scope, defines, constants)
    return _eval(program, scope, defines, constants)


def _eval(
    expr: ast.OqlNode,
    scope: Dict[str, Any],
    defines: Dict[str, Any],
    constants: Mapping[str, Any],
) -> Any:
    if isinstance(expr, ast.OLiteral):
        return expr.value
    if isinstance(expr, ast.OVar):
        if expr.name in scope:
            return scope[expr.name]
        if expr.name in defines:
            return defines[expr.name]
        if expr.name in constants:
            return constants[expr.name]
        raise EvalError("unbound OQL name %r" % expr.name)
    if isinstance(expr, ast.ODot):
        value = _eval(expr.expr, scope, defines, constants)
        if not isinstance(value, Record):
            raise EvalError("object access on non-record %r" % (value,))
        return value[expr.field]
    if isinstance(expr, ast.OStruct):
        return Record(
            {name: _eval(sub, scope, defines, constants) for name, sub in expr.fields}
        )
    if isinstance(expr, ast.OBagLiteral):
        return Bag(_eval(item, scope, defines, constants) for item in expr.items)
    if isinstance(expr, ast.OFlatten):
        value = _eval(expr.arg, scope, defines, constants)
        from repro.data.model import flatten

        try:
            return flatten(value)
        except DataError as exc:
            raise EvalError(str(exc)) from exc
    if isinstance(expr, ast.OUnary):
        value = _eval(expr.operand, scope, defines, constants)
        if expr.op == "-":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise EvalError("- expects a number, got %r" % (value,))
            return -value
        if expr.op == "not":
            if not isinstance(value, bool):
                raise EvalError("not expects a boolean, got %r" % (value,))
            return not value
        raise EvalError("unknown unary op %r" % expr.op)
    if isinstance(expr, ast.OBinary):
        return _eval_binary(expr, scope, defines, constants)
    if isinstance(expr, ast.OAggregate):
        value = _eval(expr.arg, scope, defines, constants)
        if not isinstance(value, Bag):
            raise EvalError("%s expects a collection, got %r" % (expr.func, value))
        try:
            if expr.func == "count":
                return len(value)
            if expr.func == "sum":
                return OpSum().apply(value)
            if expr.func == "avg":
                return OpAvg().apply(value)
            if expr.func == "min":
                return OpMin().apply(value)
            if expr.func == "max":
                return OpMax().apply(value)
        except DataError as exc:
            raise EvalError(str(exc)) from exc
        raise EvalError("unknown aggregate %r" % expr.func)
    if isinstance(expr, ast.OExists):
        coll = _eval(expr.coll, scope, defines, constants)
        if not isinstance(coll, Bag):
            raise EvalError("exists expects a collection, got %r" % (coll,))
        for item in coll:
            inner = dict(scope)
            inner[expr.var] = item
            verdict = _eval(expr.pred, inner, defines, constants)
            if not isinstance(verdict, bool):
                raise EvalError("exists predicate returned %r" % (verdict,))
            if verdict:
                return True
        return False
    if isinstance(expr, ast.SelectFromWhere):
        results = list(
            _iterate(expr, 0, scope, defines, constants)
        )
        bag = Bag(results)
        return bag.distinct() if expr.distinct else bag
    raise EvalError("unknown OQL node %r" % (expr,))


def _iterate(
    sfw: ast.SelectFromWhere,
    index: int,
    scope: Dict[str, Any],
    defines: Dict[str, Any],
    constants: Mapping[str, Any],
):
    if index == len(sfw.bindings):
        if sfw.where is not None:
            verdict = _eval(sfw.where, scope, defines, constants)
            if not isinstance(verdict, bool):
                raise EvalError("where returned non-boolean %r" % (verdict,))
            if not verdict:
                return
        yield _eval(sfw.projection, scope, defines, constants)
        return
    binding = sfw.bindings[index]
    coll = _eval(binding.coll, scope, defines, constants)
    if not isinstance(coll, Bag):
        raise EvalError("from-binding expects a collection, got %r" % (coll,))
    for item in coll:
        inner = dict(scope)
        inner[binding.var] = item
        for result in _iterate(sfw, index + 1, inner, defines, constants):
            yield result


def _eval_binary(
    expr: ast.OBinary,
    scope: Dict[str, Any],
    defines: Dict[str, Any],
    constants: Mapping[str, Any],
) -> Any:
    from repro.data import operators as ops

    table = {
        "+": ops.OpAdd(),
        "-": ops.OpSub(),
        "*": ops.OpMult(),
        "/": ops.OpDiv(),
        "=": ops.OpEq(),
        "<": ops.OpLt(),
        "<=": ops.OpLe(),
        ">": ops.OpGt(),
        ">=": ops.OpGe(),
        "and": ops.OpAnd(),
        "or": ops.OpOr(),
        "in": ops.OpIn(),
        "union": ops.OpUnion(),
        "except": ops.OpBagDiff(),
        "intersect": ops.OpBagInter(),
    }
    left = _eval(expr.left, scope, defines, constants)
    right = _eval(expr.right, scope, defines, constants)
    try:
        if expr.op == "!=":
            return not ops.OpEq().apply(left, right)
        if expr.op in table:
            return table[expr.op].apply(left, right)
    except DataError as exc:
        raise EvalError(str(exc)) from exc
    raise EvalError("unknown binary op %r" % expr.op)
