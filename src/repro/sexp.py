"""S-expression interchange for plans and patterns (paper §8).

"JRules and SQL support rely on existing Java parsers for those
languages, which pass an AST to the compiler encoded as an
S-expression."  This module provides that interchange format for the
Python compiler: every NRAe plan, NNRC expression, and CAMP pattern can
be serialised to a textual S-expression and read back losslessly, so
external frontends (or humans) can hand the compiler ready-made ASTs,
and optimized plans can be saved and reloaded.

Grammar::

    sexp  ::= atom | ( sexp* )
    atom  ::= symbol | integer | float | "string"

Values are encoded with tagged forms: ``(bag e*)``, ``(rec (name e)*)``,
``(date "YYYY-MM-DD")``, ``null``, ``true``/``false``.  The strings
``"null"``, ``"true"`` and ``"false"`` are written ``(str "null")`` and
so on, because the reader does not tell a quoted atom from a bare one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Sequence, Tuple, Union

from repro.camp import ast as camp
from repro.data import operators as ops
from repro.data.foreign import DateValue
from repro.data.model import Bag, Record
from repro.nnrc import ast as nnrc
from repro.nraenv import ast as nra

Sexp = Union[str, int, float, List["Sexp"]]


class SexpError(ValueError):
    """Malformed S-expression input."""


# ---------------------------------------------------------------------------
# Reader / writer for the textual form
# ---------------------------------------------------------------------------


def parse_sexp(text: str) -> Sexp:
    """Parse one S-expression from text."""
    tokens = _tokenize(text)
    expr, index = _read(tokens, 0)
    if index != len(tokens):
        raise SexpError("trailing input after S-expression")
    return expr


def _tokenize(text: str) -> List[str]:
    tokens: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()":
            tokens.append(ch)
            i += 1
        elif ch == ";":
            while i < len(text) and text[i] != "\n":
                i += 1
        elif ch == '"':
            j = i + 1
            parts = []
            while j < len(text) and text[j] != '"':
                if text[j] == "\\" and j + 1 < len(text):
                    parts.append(text[j + 1])
                    j += 2
                else:
                    parts.append(text[j])
                    j += 1
            if j >= len(text):
                raise SexpError("unterminated string")
            tokens.append('"' + "".join(parts))
            i = j + 1
        else:
            j = i
            while j < len(text) and not text[j].isspace() and text[j] not in '();"':
                j += 1
            tokens.append(text[i:j])
            i = j
    return tokens


def _read(tokens: List[str], index: int) -> Tuple[Sexp, int]:
    if index >= len(tokens):
        raise SexpError("unexpected end of input")
    token = tokens[index]
    if token == "(":
        items: List[Sexp] = []
        index += 1
        while index < len(tokens) and tokens[index] != ")":
            item, index = _read(tokens, index)
            items.append(item)
        if index >= len(tokens):
            raise SexpError("missing )")
        return items, index + 1
    if token == ")":
        raise SexpError("unexpected )")
    if token.startswith('"'):
        return token[1:], index + 1
    try:
        return int(token), index + 1
    except ValueError:
        pass
    try:
        return float(token), index + 1
    except ValueError:
        pass
    return token, index + 1


def print_sexp(expr: Sexp) -> str:
    """Render an S-expression to text."""
    if isinstance(expr, list):
        return "(%s)" % " ".join(print_sexp(item) for item in expr)
    if isinstance(expr, str) and _is_symbol(expr):
        return expr
    if isinstance(expr, str):
        escaped = expr.replace("\\", "\\\\").replace('"', '\\"')
        return '"%s"' % escaped
    return repr(expr)


def _is_symbol(text: str) -> bool:
    return bool(text) and all(
        ch.isalnum() or ch in "_-+*/<>=.!?$%" for ch in text
    ) and not text[0].isdigit() and not _looks_numeric(text)


def _looks_numeric(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


#: Bare atoms that decode to a non-string value.
_KEYWORDS = frozenset(("null", "true", "false"))


def value_to_sexp(value: Any) -> Sexp:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str) and value in _KEYWORDS:
        return ["str", value]
    if isinstance(value, (int, float, str)):
        return value
    if isinstance(value, DateValue):
        return ["date", value.isoformat()]
    if isinstance(value, Bag):
        return ["bag"] + [value_to_sexp(v) for v in value]
    if isinstance(value, Record):
        return ["rec"] + [[name, value_to_sexp(v)] for name, v in value.fields]
    raise SexpError("cannot encode value %r" % (value,))


def sexp_to_value(expr: Sexp) -> Any:
    if expr == "null":
        return None
    if expr == "true":
        return True
    if expr == "false":
        return False
    if isinstance(expr, (int, float)):
        return expr
    if isinstance(expr, str):
        return expr
    if isinstance(expr, list) and expr:
        head = expr[0]
        if head == "str":
            return expr[1]
        if head == "date":
            return DateValue.parse(expr[1])
        if head == "bag":
            return Bag(sexp_to_value(item) for item in expr[1:])
        if head == "rec":
            return Record({item[0]: sexp_to_value(item[1]) for item in expr[1:]})
    raise SexpError("cannot decode value %r" % (expr,))


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

_PARAM_UNOPS = {
    "rec": (ops.OpRec, lambda op: [op.field], lambda a: ops.OpRec(a[0])),
    "dot": (ops.OpDot, lambda op: [op.field], lambda a: ops.OpDot(a[0])),
    "remove": (ops.OpRemove, lambda op: [op.field], lambda a: ops.OpRemove(a[0])),
    "project": (
        ops.OpProject,
        lambda op: [list(op.fields)],
        lambda a: ops.OpProject(a[0]),
    ),
    "sort_by": (
        ops.OpSortBy,
        lambda op: [[[f, "desc" if d else "asc"] for f, d in op.keys]],
        lambda a: ops.OpSortBy([(k[0], k[1] == "desc") for k in a[0]]),
    ),
    "like": (ops.OpLike, lambda op: [op.pattern], lambda a: ops.OpLike(a[0])),
    "substring": (
        ops.OpSubstring,
        lambda op: [op.start, "null" if op.length is None else op.length],
        lambda a: ops.OpSubstring(a[0], None if a[1] == "null" else a[1]),
    ),
    "limit": (ops.OpLimit, lambda op: [op.n], lambda a: ops.OpLimit(a[0])),
}

_SIMPLE_UNOPS = {
    cls().name: cls
    for cls in ops.UNARY_OPS
    if cls not in {entry[0] for entry in _PARAM_UNOPS.values()}
}

_BINOPS = {cls().name: cls for cls in ops.BINARY_OPS}


def _unop_to_sexp(op: ops.UnaryOp) -> Sexp:
    for name, (cls, encode, _) in _PARAM_UNOPS.items():
        if isinstance(op, cls):
            return [name] + encode(op)
    return op.name


def _sexp_to_unop(expr: Sexp) -> ops.UnaryOp:
    if isinstance(expr, list):
        name = expr[0]
        if name in _PARAM_UNOPS:
            return _PARAM_UNOPS[name][2](expr[1:])
        raise SexpError("unknown unary op %r" % (expr,))
    if expr in _PARAM_UNOPS:
        raise SexpError("unary op %r requires parameters" % expr)
    if expr in _SIMPLE_UNOPS:
        return _SIMPLE_UNOPS[expr]()
    raise SexpError("unknown unary op %r" % (expr,))


def _sexp_to_binop(expr: Sexp) -> ops.BinaryOp:
    if isinstance(expr, str) and expr in _BINOPS:
        return _BINOPS[expr]()
    raise SexpError("unknown binary op %r" % (expr,))


# ---------------------------------------------------------------------------
# NRAe plans
# ---------------------------------------------------------------------------


def nraenv_to_sexp(plan: nra.NraeNode) -> Sexp:
    """Encode an NRAe (or NRA) plan."""
    if isinstance(plan, nra.Const):
        return ["const", value_to_sexp(plan.value)]
    if isinstance(plan, nra.ID):
        return "in"
    if isinstance(plan, nra.Env):
        return "env"
    if isinstance(plan, nra.GetConstant):
        return ["table", plan.cname]
    if isinstance(plan, nra.App):
        return ["comp", nraenv_to_sexp(plan.after), nraenv_to_sexp(plan.before)]
    if isinstance(plan, nra.AppEnv):
        return ["comp-env", nraenv_to_sexp(plan.after), nraenv_to_sexp(plan.before)]
    if isinstance(plan, nra.Unop):
        return ["unop", _unop_to_sexp(plan.op), nraenv_to_sexp(plan.arg)]
    if isinstance(plan, nra.Binop):
        return [
            "binop",
            plan.op.name,
            nraenv_to_sexp(plan.left),
            nraenv_to_sexp(plan.right),
        ]
    if isinstance(plan, nra.Map):
        return ["map", nraenv_to_sexp(plan.body), nraenv_to_sexp(plan.input)]
    if isinstance(plan, nra.MapEnv):
        return ["map-env", nraenv_to_sexp(plan.body)]
    if isinstance(plan, nra.Select):
        return ["select", nraenv_to_sexp(plan.pred), nraenv_to_sexp(plan.input)]
    if isinstance(plan, nra.Product):
        return ["product", nraenv_to_sexp(plan.left), nraenv_to_sexp(plan.right)]
    if isinstance(plan, nra.DepJoin):
        return ["dep-join", nraenv_to_sexp(plan.body), nraenv_to_sexp(plan.input)]
    if isinstance(plan, nra.Default):
        return ["default", nraenv_to_sexp(plan.left), nraenv_to_sexp(plan.right)]
    raise SexpError("cannot encode plan node %r" % (plan,))


def sexp_to_nraenv(expr: Sexp) -> nra.NraeNode:
    """Decode an NRAe plan."""
    if expr == "in":
        return nra.ID()
    if expr == "env":
        return nra.Env()
    if not isinstance(expr, list) or not expr:
        raise SexpError("cannot decode plan %r" % (expr,))
    head = expr[0]
    if head == "const":
        return nra.Const(sexp_to_value(expr[1]))
    if head == "table":
        return nra.GetConstant(expr[1])
    if head == "comp":
        return nra.App(sexp_to_nraenv(expr[1]), sexp_to_nraenv(expr[2]))
    if head == "comp-env":
        return nra.AppEnv(sexp_to_nraenv(expr[1]), sexp_to_nraenv(expr[2]))
    if head == "unop":
        return nra.Unop(_sexp_to_unop(expr[1]), sexp_to_nraenv(expr[2]))
    if head == "binop":
        return nra.Binop(
            _sexp_to_binop(expr[1]), sexp_to_nraenv(expr[2]), sexp_to_nraenv(expr[3])
        )
    if head == "map":
        return nra.Map(sexp_to_nraenv(expr[1]), sexp_to_nraenv(expr[2]))
    if head == "map-env":
        return nra.MapEnv(sexp_to_nraenv(expr[1]))
    if head == "select":
        return nra.Select(sexp_to_nraenv(expr[1]), sexp_to_nraenv(expr[2]))
    if head == "product":
        return nra.Product(sexp_to_nraenv(expr[1]), sexp_to_nraenv(expr[2]))
    if head == "dep-join":
        return nra.DepJoin(sexp_to_nraenv(expr[1]), sexp_to_nraenv(expr[2]))
    if head == "default":
        return nra.Default(sexp_to_nraenv(expr[1]), sexp_to_nraenv(expr[2]))
    raise SexpError("cannot decode plan %r" % (expr,))


# ---------------------------------------------------------------------------
# CAMP patterns (the interchange the paper's JRules frontend uses)
# ---------------------------------------------------------------------------


def camp_to_sexp(pattern: camp.CampNode) -> Sexp:
    if isinstance(pattern, camp.PConst):
        return ["const", value_to_sexp(pattern.value)]
    if isinstance(pattern, camp.PIt):
        return "it"
    if isinstance(pattern, camp.PEnv):
        return "env"
    if isinstance(pattern, camp.PGetConstant):
        return ["table", pattern.cname]
    if isinstance(pattern, camp.PUnop):
        return ["unop", _unop_to_sexp(pattern.op), camp_to_sexp(pattern.arg)]
    if isinstance(pattern, camp.PBinop):
        return [
            "binop",
            pattern.op.name,
            camp_to_sexp(pattern.left),
            camp_to_sexp(pattern.right),
        ]
    if isinstance(pattern, camp.PLetIt):
        return ["let-it", camp_to_sexp(pattern.defn), camp_to_sexp(pattern.body)]
    if isinstance(pattern, camp.PLetEnv):
        return ["let-env", camp_to_sexp(pattern.defn), camp_to_sexp(pattern.body)]
    if isinstance(pattern, camp.PMap):
        return ["pmap", camp_to_sexp(pattern.body)]
    if isinstance(pattern, camp.PAssert):
        return ["assert", camp_to_sexp(pattern.body)]
    if isinstance(pattern, camp.POrElse):
        return ["or-else", camp_to_sexp(pattern.left), camp_to_sexp(pattern.right)]
    raise SexpError("cannot encode pattern %r" % (pattern,))


def sexp_to_camp(expr: Sexp) -> camp.CampNode:
    if expr == "it":
        return camp.PIt()
    if expr == "env":
        return camp.PEnv()
    if not isinstance(expr, list) or not expr:
        raise SexpError("cannot decode pattern %r" % (expr,))
    head = expr[0]
    if head == "const":
        return camp.PConst(sexp_to_value(expr[1]))
    if head == "table":
        return camp.PGetConstant(expr[1])
    if head == "unop":
        return camp.PUnop(_sexp_to_unop(expr[1]), sexp_to_camp(expr[2]))
    if head == "binop":
        return camp.PBinop(
            _sexp_to_binop(expr[1]), sexp_to_camp(expr[2]), sexp_to_camp(expr[3])
        )
    if head == "let-it":
        return camp.PLetIt(sexp_to_camp(expr[1]), sexp_to_camp(expr[2]))
    if head == "let-env":
        return camp.PLetEnv(sexp_to_camp(expr[1]), sexp_to_camp(expr[2]))
    if head == "pmap":
        return camp.PMap(sexp_to_camp(expr[1]))
    if head == "assert":
        return camp.PAssert(sexp_to_camp(expr[1]))
    if head == "or-else":
        return camp.POrElse(sexp_to_camp(expr[1]), sexp_to_camp(expr[2]))
    raise SexpError("cannot decode pattern %r" % (expr,))


# -- convenience: textual round trips ---------------------------------------


def dumps_plan(plan: nra.NraeNode) -> str:
    return print_sexp(nraenv_to_sexp(plan))


def loads_plan(text: str) -> nra.NraeNode:
    return sexp_to_nraenv(parse_sexp(text))


def dumps_camp(pattern: camp.CampNode) -> str:
    return print_sexp(camp_to_sexp(pattern))


def loads_camp(text: str) -> camp.CampNode:
    return sexp_to_camp(parse_sexp(text))
