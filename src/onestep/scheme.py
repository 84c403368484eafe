"""Interaction schemes: reaction systems with at most one step per event.

A scheme is a list of interactions over a common species vector.  Each
interaction carries integer stoichiometry vectors for the initial and
final complexes and one rate symbol per direction.  The text format puts
one reaction per line:

    phi <-> 2 phi @ lambda, gamma
    phi -> 0 @ beta

'#' starts a comment, blank lines are skipped, '0' denotes the empty
complex, and a coefficient may be juxtaposed ("2 phi") or starred
("2*phi").  Species are numbered in order of first appearance.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterable

from .poly import (MAX_STOICH, SymbolId, SymbolKind, Token, TokenStream,
                   rate, species)


class SchemeError(ValueError):
    """Base class for scheme construction and parse failures."""


class SchemeSyntaxError(SchemeError):
    def __init__(self, message: str, line: int, column: int,
                 expected: str | None = None):
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"line {line}, column {column}: {message}"
        if expected:
            detail += f" (expected {expected})"
        super().__init__(detail)


class EmptySchemeError(SchemeError):
    def __init__(self):
        super().__init__("scheme contains no reactions")


class NoOpInteractionError(SchemeError):
    def __init__(self, line: int | None = None):
        self.line = line
        where = f" at line {line}" if line is not None else ""
        super().__init__(f"interaction{where} has identical initial and final "
                         "complexes, so it changes nothing")


class DuplicateRateSymbolError(SchemeError):
    def __init__(self, name: str, detail: str | None = None):
        self.name = name
        super().__init__(detail or f"rate symbol {name!r} is already in use")


@dataclass(frozen=True)
class Interaction:
    """One reaction: initial -> final at forward_rate, and the reverse
    direction at backward_rate when that is not None."""

    initial: tuple[int, ...]
    final: tuple[int, ...]
    forward_rate: SymbolId
    backward_rate: SymbolId | None = None

    def __post_init__(self) -> None:
        if len(self.initial) != len(self.final):
            raise SchemeError("initial and final complexes differ in length")
        for vec in (self.initial, self.final):
            for c in vec:
                if not isinstance(c, int) or c < 0 or c > MAX_STOICH:
                    raise SchemeError(
                        f"stoichiometric coefficients must lie in 0..{MAX_STOICH}")
        if self.initial == self.final:
            raise NoOpInteractionError()
        if self.forward_rate.kind is not SymbolKind.RATE:
            raise SchemeError("forward rate must be a rate-kind symbol")
        if self.backward_rate is not None:
            if self.backward_rate.kind is not SymbolKind.RATE:
                raise SchemeError("backward rate must be a rate-kind symbol")
            if self.backward_rate == self.forward_rate:
                raise DuplicateRateSymbolError(
                    self.forward_rate.name,
                    f"rate symbol {self.forward_rate.name!r} used for both "
                    "directions of one interaction")

    @functools.cached_property
    def change(self) -> tuple[int, ...]:
        # computed once per interaction, in its __dict__, which no field,
        # comparison or hash reads
        return tuple(f - i for i, f in zip(self.initial, self.final))

    @property
    def reversible(self) -> bool:
        return self.backward_rate is not None


@dataclass(frozen=True)
class InteractionScheme:
    species: tuple[SymbolId, ...]
    interactions: tuple[Interaction, ...]

    def __post_init__(self) -> None:
        if not self.interactions:
            raise EmptySchemeError()
        if not self.species:
            raise SchemeError("scheme declares no species")
        names = [s.name for s in self.species]
        if len(set(names)) != len(names):
            raise SchemeError("duplicate species name")
        for s in self.species:
            if s.kind is not SymbolKind.SPECIES:
                raise SchemeError("species vector contains a non-species symbol")
        n = len(self.species)
        for ia in self.interactions:
            if len(ia.initial) != n:
                raise SchemeError("interaction stoichiometry does not match "
                                  "the species vector length")

    @property
    def rate_symbols(self) -> tuple[SymbolId, ...]:
        """Distinct rate symbols in declaration order: every forward rate
        by interaction index, then every backward rate by interaction index."""
        out: list[SymbolId] = []
        seen: set[SymbolId] = set()
        for ia in self.interactions:
            if ia.forward_rate not in seen:
                out.append(ia.forward_rate)
                seen.add(ia.forward_rate)
        for ia in self.interactions:
            if ia.backward_rate is not None and ia.backward_rate not in seen:
                out.append(ia.backward_rate)
                seen.add(ia.backward_rate)
        return tuple(out)


# ---------------------------------------------------------------------------
# text format

_LINE_TOKEN_RE = re.compile(
    r"(?P<arrow><->|->)|(?P<number>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[+@,*])")


class _LineParser(TokenStream):
    def __init__(self, line: str, line_no: int):
        super().__init__(line, _LINE_TOKEN_RE, lambda c, i: SchemeSyntaxError(
            f"unexpected character {c!r}", line_no, i + 1))
        self.line_no = line_no

    def fail(self, message: str, expected: str | None = None,
             at: Token | None = None):
        """Raise at token at, the next token by default; columns are
        1-based."""
        at = at or self.peek()
        raise SchemeSyntaxError(message, self.line_no, at.position + 1,
                                expected)

    def parse_complex(self, order: list[str]) -> dict[str, int]:
        # empty complex: a lone '0'
        tok = self.peek()
        if tok.kind == "number" and tok.text == "0":
            after = self.peek(1)
            if after.kind not in ("name",) and not (after.kind == "op"
                                                    and after.text == "*"):
                self.take()
                return {}
        counts: dict[str, int] = {}
        while True:
            name, c = self.parse_term()
            if name not in order:
                order.append(name)
            counts[name] = counts.get(name, 0) + c
            if counts[name] > MAX_STOICH:
                self.fail(f"stoichiometry of {name!r} exceeds {MAX_STOICH}")
            if not self.accept_op("+"):
                return counts

    def parse_term(self) -> tuple[str, int]:
        tok = self.peek()
        c = 1
        if tok.kind == "number":
            self.take()
            c = int(tok.text)
            if c == 0:
                self.fail("zero stoichiometric coefficient", at=tok)
            if c > MAX_STOICH:
                self.fail(f"stoichiometric coefficient exceeds {MAX_STOICH}",
                          at=tok)
            self.accept_op("*")
        name_tok = self.peek()
        if name_tok.kind != "name":
            self.fail("malformed complex", expected="a species name")
        self.take()
        return name_tok.text, c

    def parse_rates(self, reversible: bool) -> tuple[str, str | None]:
        first = self.peek()
        if first.kind != "name":
            self.fail("missing rate symbol", expected="a rate symbol after '@'")
        self.take()
        second = None
        if self.accept_op(","):
            tok = self.peek()
            if tok.kind != "name":
                self.fail("missing backward rate symbol",
                          expected="a rate symbol after ','")
            self.take()
            second = tok.text
        if reversible and second is None:
            self.fail("a reversible reaction needs two rate symbols",
                      expected="', <backward rate>'")
        if not reversible and second is not None:
            self.fail("an irreversible reaction takes one rate symbol",
                      at=first)
        return first.text, second


def parse_scheme(text: str, allow_shared_rates: bool = False) -> InteractionScheme:
    """Parse scheme text; see the module docstring for the format.

    Rate symbols may repeat across interactions only when
    allow_shared_rates is set; reuse within one interaction and collisions
    with species names are always errors.
    """
    order: list[str] = []
    parsed = []  # (lhs, rhs, fwd_name, bwd_name)
    rate_first_use: dict[str, int] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        p = _LineParser(line, line_no)
        lhs = p.parse_complex(order)
        arrow = p.peek()
        if arrow.kind != "arrow":
            p.fail("malformed reaction", expected="'->' or '<->'")
        p.take()
        rhs = p.parse_complex(order)
        if not p.accept_op("@"):
            p.fail("missing rate section", expected="'@'")
        fwd, bwd = p.parse_rates(reversible=(arrow.text == "<->"))
        tail = p.peek()
        if tail.kind != "end":
            p.fail(f"trailing input {tail.text!r}", expected="end of line")

        if lhs == rhs:
            raise NoOpInteractionError(line_no)
        for name in (fwd, bwd) if bwd else (fwd,):
            if name in rate_first_use and not allow_shared_rates:
                raise DuplicateRateSymbolError(
                    name, f"rate symbol {name!r} on line {line_no} already "
                          f"used on line {rate_first_use[name]}")
            rate_first_use.setdefault(name, line_no)
        if bwd == fwd and bwd is not None:
            raise DuplicateRateSymbolError(
                fwd, f"rate symbol {fwd!r} used for both directions on "
                     f"line {line_no}")
        parsed.append((lhs, rhs, fwd, bwd))

    if not parsed:
        raise EmptySchemeError()

    species_names = set(order)
    for name in rate_first_use:
        if name in species_names:
            raise DuplicateRateSymbolError(
                name, f"name {name!r} is used both as a species and as a "
                      "rate symbol")

    species_syms = tuple(species(n) for n in order)
    interactions = tuple(
        Interaction(initial=tuple(lhs.get(n, 0) for n in order),
                    final=tuple(rhs.get(n, 0) for n in order),
                    forward_rate=rate(fwd),
                    backward_rate=rate(bwd) if bwd else None)
        for lhs, rhs, fwd, bwd in parsed)
    return InteractionScheme(species=species_syms, interactions=interactions)


def _side_text(counts: Iterable[int], names: list[str]) -> str:
    parts = [f"{c}{n}" if c > 1 else n
             for c, n in zip(counts, names) if c > 0]
    return " + ".join(parts) if parts else "0"


def format_scheme(scheme: InteractionScheme) -> str:
    """Canonical one-reaction-per-line text; parse_scheme inverts it."""
    names = [s.name for s in scheme.species]
    lines = []
    for ia in scheme.interactions:
        lhs = _side_text(ia.initial, names)
        rhs = _side_text(ia.final, names)
        if ia.backward_rate is not None:
            lines.append(f"{lhs} <-> {rhs} @ {ia.forward_rate.name}, "
                         f"{ia.backward_rate.name}")
        else:
            lines.append(f"{lhs} -> {rhs} @ {ia.forward_rate.name}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON form


def scheme_to_dict(scheme: InteractionScheme) -> dict:
    return {
        "species": [s.name for s in scheme.species],
        "interactions": [
            {
                "initial": list(ia.initial),
                "final": list(ia.final),
                "forward_rate": ia.forward_rate.name,
                "backward_rate": (ia.backward_rate.name
                                  if ia.backward_rate else None),
            }
            for ia in scheme.interactions
        ],
    }


def scheme_from_dict(data: dict) -> InteractionScheme:
    try:
        species_syms = tuple(species(n) for n in data["species"])
        interactions = tuple(
            Interaction(
                initial=tuple(int(c) for c in item["initial"]),
                final=tuple(int(c) for c in item["final"]),
                forward_rate=rate(item["forward_rate"]),
                backward_rate=(rate(item["backward_rate"])
                               if item.get("backward_rate") else None))
            for item in data["interactions"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SchemeError):
            raise
        raise SchemeError(f"malformed scheme object: {exc}") from exc
    return InteractionScheme(species=species_syms, interactions=interactions)
