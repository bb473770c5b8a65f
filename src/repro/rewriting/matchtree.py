"""The pattern-match compiler: one head symbol's rules to one decision tree.

Compiled rewrite dispatch (:mod:`repro.rewriting.compile`), the ground
evaluator (:mod:`repro.semantics.evaluator`) and the completeness check behind
Remark 2.1 (:meth:`~repro.rewriting.trs.RewriteSystem.completeness_report`,
through :func:`is_exhaustive`) all build their decision trees here.

The builder is Maranget's pattern-matrix compilation ("Compiling pattern
matching to good decision trees", ML Workshop 2008), and the exhaustiveness
test is the specialisation argument of "Warnings for pattern matching"
(JFP 2007) read off the finished tree.  A tree has three node kinds:

* ``(LEAF, bindings, rhs)`` — a rule fires; ``bindings`` maps each pattern
  variable, in binding order, to its occurrence, and ``rhs`` is the rule's
  right-hand side;
* ``(SWITCH, occurrence, cases, default)`` — branch on the head constructor
  at ``occurrence``; ``cases`` maps each constructor, in order of first
  appearance in the rows, to ``(nargs, subtree)`` where ``nargs`` is the
  spine length the patterns demand; ``default`` (or ``None``) takes every
  other scrutinee;
* ``(FAIL,)`` — the head has no rules.  Only a whole tree can be ``FAIL``:
  every case keeps the row that introduced its constructor, and a switch
  without variable rows has no default.

An occurrence ``(i, j, k, ...)`` selects argument ``i`` of the call, then
child ``j`` of the constructor found there, then child ``k``, ... — every
index 0-based and counted left to right.  Each backend translates child
indices to its own access path: a value-tuple slot, or a ``.fun``/``.arg``
chain whose length depends on the ``nargs`` of the enclosing switch case.

Row order survives specialisation, so the tree keeps first-match
declaration-order semantics even for overlapping rules.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.signature import Signature
from ..core.terms import App, Sym, Var, free_vars, spine, subterms

__all__ = ["LEAF", "SWITCH", "FAIL", "MatchCompilationDeclined", "match_tree", "is_exhaustive"]

LEAF, SWITCH, FAIL = 0, 1, 2


class MatchCompilationDeclined(Exception):
    """A head symbol's rules fall outside the compilable fragment.

    The fragment is that of elaborated functional programs: rules of one
    arity, left-linear, with constructor patterns over unapplied variables and
    no right-hand-side variable left unbound.  Rules added during completion
    (``add_rule(validate=False)``) may leave it.
    """


def match_tree(signature: Signature, head: str, rules: Sequence) -> tuple:
    """The decision tree of ``head``'s rules, in declaration order.

    Raises :class:`MatchCompilationDeclined` when the rules leave the
    compilable fragment, or match one constructor at two spine lengths in one
    column.
    """
    if not rules:
        return (FAIL,)
    if len({len(rule.patterns) for rule in rules}) != 1:
        raise MatchCompilationDeclined(f"{head}: rules disagree on arity")
    rows = []
    for rule in rules:
        if not rule.is_left_linear():
            raise MatchCompilationDeclined(f"{head}: {rule} is not left-linear")
        pattern_vars = {v.name for v in free_vars(rule.lhs)}
        if any(var.name not in pattern_vars for var in free_vars(rule.rhs)):
            raise MatchCompilationDeclined(
                f"{head}: right-hand side of {rule} has unbound variables"
            )
        for pattern in rule.patterns:
            for sub in subterms(pattern):
                if isinstance(sub, Sym) and not signature.is_constructor(sub.name):
                    raise MatchCompilationDeclined(
                        f"{head}: pattern {pattern} contains non-constructor "
                        f"symbol {sub.name}"
                    )
                if isinstance(sub, App) and sub._head is None:
                    raise MatchCompilationDeclined(
                        f"{head}: pattern {pattern} applies a variable"
                    )
        columns = [((index,), pattern) for index, pattern in enumerate(rule.patterns)]
        rows.append((columns, {}, rule.rhs))
    return _compile_matrix(head, rows)


def _compile_matrix(head: str, rows: List) -> tuple:
    """Rows are ``(columns, bindings, rhs)``; a column is ``(occurrence,
    pattern)``, the pattern ``None`` once it is a wildcard nothing binds."""
    columns, bindings, rhs = rows[0]
    split = next(
        (i for i, (_, p) in enumerate(columns) if p is not None and not isinstance(p, Var)),
        None,
    )
    if split is None:
        # The first row matches unconditionally: bind its variables and stop —
        # later rows are unreachable here.
        leaf_bindings = dict(bindings)
        for occurrence, pattern in columns:
            if pattern is not None:
                leaf_bindings[pattern.name] = occurrence
        return (LEAF, leaf_bindings, rhs)
    occurrence = columns[split][0]
    case_arity: Dict[str, int] = {}
    for row_columns, _, _ in rows:
        pattern = next((p for o, p in row_columns if o == occurrence), None)
        if pattern is None or isinstance(pattern, Var):
            continue
        con, sub_patterns = spine(pattern)
        known = case_arity.setdefault(con.name, len(sub_patterns))
        if known != len(sub_patterns):
            raise MatchCompilationDeclined(
                f"{head}: constructor {con.name} is matched at two arities"
            )

    def specialised(constructor, nargs):
        rows_out = (_specialise(row, occurrence, constructor, nargs) for row in rows)
        return [row for row in rows_out if row is not None]

    cases = {
        constructor: (nargs, _compile_matrix(head, specialised(constructor, nargs)))
        for constructor, nargs in case_arity.items()
    }
    default_rows = specialised(None, 0)
    default = _compile_matrix(head, default_rows) if default_rows else None
    return (SWITCH, occurrence, cases, default)


def _specialise(row, occurrence, constructor, nargs: int):
    """``row`` specialised to ``constructor`` (of spine length ``nargs``) at
    ``occurrence``, or ``None`` when the row demands a different one.  The
    constructor ``None`` (with ``nargs`` 0) selects the default matrix: rows
    with a variable at ``occurrence``, the column dropped."""
    columns, bindings, rhs = row
    new_columns = []
    new_bindings = dict(bindings)
    for column, pattern in columns:
        if column != occurrence:
            new_columns.append((column, pattern))
            continue
        if pattern is None or isinstance(pattern, Var):
            if pattern is not None:
                new_bindings[pattern.name] = column
            new_columns.extend((column + (index,), None) for index in range(nargs))
            continue
        con, sub_patterns = spine(pattern)
        if con.name != constructor or len(sub_patterns) != nargs:
            return None
        new_columns.extend(
            (column + (index,), sub_pattern) for index, sub_pattern in enumerate(sub_patterns)
        )
    return new_columns, new_bindings, rhs


def is_exhaustive(signature: Signature, tree: tuple) -> bool:
    """Does ``tree`` reach a leaf on every tuple of closed constructor values?

    A switch covers a constructor through its case when the case matches the
    constructor's full arity, and through the default branch otherwise.
    """
    if tree[0] != SWITCH:
        return tree[0] == LEAF
    _, _, cases, default = tree
    datatype = signature.owner_datatype(next(iter(cases)))
    needs_default = False
    for con in signature.constructors_of(datatype):
        case = cases.get(con.name)
        if case is None or case[0] != len(con.arg_types):
            needs_default = True
        elif not is_exhaustive(signature, case[1]):
            return False
    return not needs_default or (default is not None and is_exhaustive(signature, default))
