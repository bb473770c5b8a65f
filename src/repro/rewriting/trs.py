"""Term rewriting systems: rule collections indexed by head symbol.

Besides bookkeeping, this module implements the checks behind the standing
assumptions of Remark 2.1:

* **completeness** — no closed, first-order term headed by a defined function is
  in normal form; operationally, the argument patterns of each defined function
  cover every combination of constructors (this is what "the compiler
  guarantees" for a functional program with exhaustive pattern matches);
* **orthogonality** — left-linearity plus the absence of overlaps between rule
  left-hand sides, the standard syntactic criterion implying confluence for
  functional programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..core.exceptions import RewriteError
from ..core.signature import Signature
from ..core.terms import Term
from ..core.types import arg_types
from .index import RuleIndex
from .matchtree import MatchCompilationDeclined, is_exhaustive, match_tree
from .rules import RewriteRule

__all__ = ["RewriteSystem", "CompletenessReport"]


@dataclass
class CompletenessReport:
    """The result of a pattern-coverage analysis."""

    complete: bool
    missing: List[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.complete


class RewriteSystem:
    """A set of rewrite rules over a signature, indexed by head symbol."""

    def __init__(self, signature: Signature, rules: Iterable[RewriteRule] = ()):
        self.signature = signature
        self._rules: List[RewriteRule] = []
        self._by_head: Dict[str, List[RewriteRule]] = {}
        self._index = RuleIndex()
        self._epoch = 0
        for rule in rules:
            self.add_rule(rule)

    # -- construction -----------------------------------------------------------

    def add_rule(self, rule: RewriteRule, validate: bool = True) -> None:
        """Add a rule (validated against the signature by default)."""
        if validate:
            rule.validate(self.signature)
        self._rules.append(rule)
        self._by_head.setdefault(rule.head, []).append(rule)
        self._index.add(rule.lhs, rule)
        self._epoch += 1

    def extend(self, rules: Iterable[RewriteRule], validate: bool = True) -> None:
        """Add several rules."""
        for rule in rules:
            self.add_rule(rule, validate=validate)

    def copy(self) -> "RewriteSystem":
        """A shallow copy sharing the signature but owning its rule list."""
        clone = RewriteSystem(self.signature)
        clone._rules = list(self._rules)
        clone._by_head = {head: list(rules) for head, rules in self._by_head.items()}
        clone._index = self._index.copy()
        clone._epoch = self._epoch
        return clone

    # -- queries ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """A counter bumped on every rule addition.

        Derived structures that are only sound for a fixed rule set — the
        normaliser's normal-form cache, the compiled match trees of
        :mod:`repro.rewriting.compile` — record the epoch they were built at
        and rebuild when it moves, so completion and rewriting induction can
        extend a system mid-run without serving stale results."""
        return self._epoch

    @property
    def rules(self) -> Tuple[RewriteRule, ...]:
        """All rules, in declaration order."""
        return tuple(self._rules)

    def rules_for(self, symbol: str) -> Tuple[RewriteRule, ...]:
        """The rules whose left-hand side is headed by ``symbol``."""
        return tuple(self._by_head.get(symbol, ()))

    #: Head-symbol rule lists at most this long are scanned directly: for the
    #: 2-3 defining clauses of a typical function the per-query constant of a
    #: trie walk exceeds the cost of the (cached-attribute-pruned) matcher,
    #: while large rule sets — completion, lemma libraries — go through the
    #: discrimination tree.
    LINEAR_SCAN_LIMIT = 4

    def matching_candidates(self, term: Term) -> Sequence[RewriteRule]:
        """Rules whose left-hand side could match ``term``, declaration order.

        An over-approximation: callers still run the matcher.  Small per-head
        rule lists are returned directly (do not mutate the result); larger
        ones are filtered through the discrimination-tree index.
        """
        head = term._head
        if head is None:
            return ()  # variable-headed spine: no rule can match
        by_head = self._by_head.get(head)
        if by_head is None:
            return ()
        if len(by_head) <= self.LINEAR_SCAN_LIMIT:
            return by_head
        return self._index.matching(term)

    def unifiable_candidates(self, term: Term) -> Tuple[RewriteRule, ...]:
        """Rules whose left-hand side could unify with ``term`` after renaming
        apart (discrimination-tree lookup; an over-approximation in
        declaration order)."""
        return self._index.unifiable(term)

    def defined_symbols(self) -> Tuple[str, ...]:
        """The defined symbols that own at least one rule."""
        return tuple(self._by_head)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[RewriteRule]:
        return iter(self._rules)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RewriteSystem({len(self._rules)} rules over {len(self._by_head)} symbols)"

    def describe(self) -> str:
        """A human-readable listing of all rules."""
        return "\n".join(str(rule) for rule in self._rules)

    # -- completeness ----------------------------------------------------------------

    def completeness_report(self, symbol: Optional[str] = None) -> CompletenessReport:
        """Check pattern coverage for one defined symbol or for all of them."""
        symbols = [symbol] if symbol else list(self.signature.defined)
        missing: List[str] = []
        for name in symbols:
            rules = self._by_head.get(name, [])
            if not rules:
                missing.append(f"{name}: no defining rules")
                continue
            try:
                tree = match_tree(self.signature, name, rules)
            except MatchCompilationDeclined as declined:
                missing.append(str(declined))
                continue
            declared_args = arg_types(self.signature.symbol_type(name))
            if len(declared_args) < len(rules[0].patterns):
                missing.append(f"{name}: declared type has fewer arguments than its rules")
            elif not is_exhaustive(self.signature, tree):
                missing.append(f"{name}: patterns do not cover all constructor combinations")
        return CompletenessReport(complete=not missing, missing=missing)

    def is_complete(self) -> bool:
        """Are the rules complete in the sense of Remark 2.1?"""
        return bool(self.completeness_report())

    def assert_complete(self) -> None:
        """Raise :class:`RewriteError` when the system is not complete."""
        report = self.completeness_report()
        if not report:
            raise RewriteError("rewrite system is not complete: " + "; ".join(report.missing))

    # -- orthogonality ------------------------------------------------------------------

    def is_left_linear(self) -> bool:
        """Is every rule left-linear?"""
        return all(rule.is_left_linear() for rule in self._rules)

    def is_orthogonal(self) -> bool:
        """Left-linear and without overlapping left-hand sides (implies confluence)."""
        from .critical_pairs import critical_pairs  # local import avoids a cycle

        return self.is_left_linear() and not critical_pairs(self)
