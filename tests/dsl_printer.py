"""The canonical printer of the expression language: ``to_source`` prints a
syntax tree of ``hfstab.dsl`` back to text, so that the parser tests can
check ``parse(to_source(t)) == t``."""

from hfstab.dsl import Bin, Call, Expr, Lit, Neg, Var


def _prec(node: Expr) -> int:
    if isinstance(node, (Lit, Var, Call)):
        return 5
    if isinstance(node, Bin):
        return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[node.op]
    if isinstance(node, Neg):
        return 3
    raise TypeError(node)


def _wrap(node: Expr, minimum: int) -> str:
    src = to_source(node)
    return f"({src})" if _prec(node) < minimum else src


def _lit_source(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def to_source(node: Expr) -> str:
    """Print an AST so that ``parse(to_source(t))`` is structurally ``t``.

    Negative literals never occur in parsed trees (the parser produces a
    ``Neg`` wrapper), so literals print without a sign.
    """
    if isinstance(node, Lit):
        return _lit_source(abs(node.value)) if node.value < 0 else _lit_source(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.fn}({to_source(node.arg)})"
    if isinstance(node, Neg):
        return "-" + _wrap(node.arg, 3)
    if isinstance(node, Bin):
        if node.op in "+-":
            return f"{_wrap(node.left, 1)}{node.op}{_wrap(node.right, 2)}"
        if node.op in "*/":
            return f"{_wrap(node.left, 2)}{node.op}{_wrap(node.right, 3)}"
        # '^' is right-associative and its base must be an atom
        return f"{_wrap(node.left, 5)}^{_wrap(node.right, 3)}"
    raise TypeError(node)
