"""Differential tests for the match compiler (:mod:`repro.rewriting.matchtree`).

Hypothesis draws small rule matrices for one fresh function over ``Nat`` and
``List Nat``: constructor patterns up to depth 2, overlapping rows allowed,
and a distinct numeral on every right-hand side so that first-match order is
observable.  Each consumer of the match compiler is checked against generic
first-order matching on every argument tuple of depth at most 3 — deep
enough to witness every gap, because no pattern inspects a constructor below
depth 2:

* compiled rewrite dispatch and generic dispatch give the same normal form;
* the ground evaluator returns the same numeral, and is stuck exactly where
  no rule matches;
* the completeness check passes exactly when every tuple matches some rule.
"""

from itertools import product

from hypothesis import given, settings, strategies as st

from repro import load_program
from repro.core.matching import match_or_none
from repro.core.terms import Sym, apply_term, spine
from repro.rewriting.reduction import Normalizer
from repro.semantics.evaluator import Evaluator, StuckEvaluation, value_to_term

PATTERN_DEPTH = 2

_DATATYPES = """
data Nat = Z | S Nat
data List a = Nil | Cons a (List a)
"""


def _pattern(ty, depth):
    """A pattern shape: ``None`` for a variable, else ``(constructor, *args)``."""
    shapes = [st.none()]
    if depth > 0 and ty == "Nat":
        shapes += [st.just(("Z",)), _pattern("Nat", depth - 1).map(lambda p: ("S", p))]
    elif depth > 0:
        shapes += [
            st.just(("Nil",)),
            st.tuples(_pattern("Nat", depth - 1), _pattern("List Nat", depth - 1)).map(
                lambda ps: ("Cons",) + ps
            ),
        ]
    return st.one_of(shapes)


@st.composite
def _matrices(draw):
    """``(column types, rows)``: one to four rows of one or two patterns."""
    types = draw(st.lists(st.sampled_from(["Nat", "List Nat"]), min_size=1, max_size=2))
    row = st.tuples(*(_pattern(ty, PATTERN_DEPTH) for ty in types))
    return types, draw(st.lists(row, min_size=1, max_size=4))


def _render(shape, names):
    if shape is None:
        return f"v{next(names)}"
    if len(shape) == 1:
        return shape[0]
    text = " ".join([shape[0]] + [_render(arg, names) for arg in shape[1:]])
    return f"({text})"


def _numeral(n):
    return "Z" if n == 0 else f"S ({_numeral(n - 1)})"


def _program(types, rows):
    lines = [_DATATYPES, "f :: " + " -> ".join(types + ["Nat"])]
    for index, row in enumerate(rows):
        names = iter(range(100))  # fresh per row: every rule is left-linear
        patterns = " ".join(_render(shape, names) for shape in row)
        lines.append(f"f {patterns} = {_numeral(index)}")
    return load_program("\n".join(lines), check_completeness=False)


def _values(ty, depth):
    """Every closed value of ``ty`` with at most ``depth`` nested constructors."""
    if depth == 0:
        return []
    if ty == "Nat":
        return [Sym("Z")] + [apply_term(Sym("S"), v) for v in _values("Nat", depth - 1)]
    return [Sym("Nil")] + [
        apply_term(Sym("Cons"), head, tail)
        for head in _values("Nat", depth - 1)
        for tail in _values("List Nat", depth - 1)
    ]


def _first_match(program, call):
    """The right-hand side of the first rule matching ``call``, or ``None``."""
    for rule in program.rules.rules_for("f"):
        if match_or_none(rule.lhs, call) is not None:
            return rule.rhs
    return None


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_consumers_agree_with_generic_matching(matrix):
    types, rows = matrix
    program = _program(types, rows)
    system = program.rules
    compiled = Normalizer(system, compile_rules=True)
    generic = Normalizer(system, compile_rules=False)
    evaluator = Evaluator(program.signature, system.rules)
    covered = True
    for args in product(*(_values(ty, PATTERN_DEPTH + 1) for ty in types)):
        call = apply_term(Sym("f"), *args)
        expected = _first_match(program, call)
        covered = covered and expected is not None
        normal_form = generic.normalize(call)
        assert normal_form == (call if expected is None else expected)
        assert compiled.normalize(call) == normal_form
        try:
            value = evaluator.evaluate(call)
        except StuckEvaluation:
            assert spine(normal_form)[0] == Sym("f")
        else:
            assert value_to_term(value) == normal_form
    assert compiled.fallback_steps == 0  # every step ran through the compiled tree
    assert system.completeness_report("f").complete == covered
