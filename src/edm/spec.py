"""Spec grammars as data: clause templates, clause sets and band sets.

Every scenario field of :class:`~edm.config.SimConfig` is a compact spec
string: a separator-joined list of clauses such as ``fail:3@100`` or
``rate:400@0-3``.  Each clause kind is declared once as a :class:`Clause`
template; the template compiles into the clause's regex, its field
conversions and its canonical renderer, so parsing and rendering cannot
drift apart.  A :class:`ClauseSet` subclass lists its clause table and
inherits tokenizing, matching, canonical ordering, validation and the
canonical ``spec`` string; :class:`BandSet` adds the ``VALUE@LO-HI`` band
logic shared by the endurance and service grammars.

Canonical strings are what ``config_hash`` and cache names are computed
from, so they are pinned byte-for-byte by tests/test_spec_grammar.py.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Callable, ClassVar

import numpy as np

__all__ = [
    "Band",
    "BandSet",
    "Clause",
    "ClauseSet",
    "SpecError",
    "format_fixed",
    "format_g",
]

#: Regex fragment matching an unsigned decimal number (no exponent form --
#: canonical rendering must round-trip, see :func:`format_fixed`).
NUMBER = r"\d+(?:\.\d+)?"


class SpecError(ValueError):
    """A spec string failed to parse or validate.

    Subclasses ``ValueError`` so ``except ValueError`` call sites keep
    working; messages always name the offending clause (or band) verbatim.
    """


def format_g(x: float) -> str:
    """Shortest-form number rendering (``%g``), for factors and ratios."""
    return f"{x:g}"


def format_fixed(x: float) -> str:
    """Fixed-point number rendering, never scientific.

    ``pe:1000000`` and ``rate:1000000`` must round-trip, and the clause
    grammars have no exponent form, so ``%g`` (which switches to ``1e+06``)
    is not an option.
    """
    return format(x, ".6f").rstrip("0").rstrip(".")


#: Number formats: regex fragment, conversion of the matched text, renderer.
_FORMATS = {
    "": (r"\d+", int, str),
    "g": (NUMBER, float, format_g),
    "fixed": (NUMBER, float, format_fixed),
}


def _field(spec: str) -> tuple[str, Callable, Callable]:
    """Regex fragment, reader (match -> fields) and writer (item -> text) of
    one ``{...}`` template field."""
    if spec == "@range":
        def read(m: re.Match) -> dict:
            lo = None if m["lo"] is None else int(m["lo"])
            return {"lo": lo, "hi": lo if m["hi"] is None else int(m["hi"])}

        def write(item: Any) -> str:
            if item.lo is None:
                return ""
            return f"@{item.lo}" if item.lo == item.hi else f"@{item.lo}-{item.hi}"

        return r"(?:@(?P<lo>\d+)(?:-(?P<hi>\d+))?)?", read, write
    if spec.startswith("/"):
        name = spec[1:]
        return (
            rf"(?:/(?P<{name}>[^/]*))?",
            lambda m: {name: m[name]},
            lambda item: "/" + getattr(item, name) if getattr(item, name) else "",
        )
    name, _, fmt = spec.partition(":")
    regex, convert, render = _FORMATS[fmt]
    return (
        rf"(?P<{name}>{regex})",
        lambda m: {name: convert(m[name])},
        lambda item: render(getattr(item, name)),
    )


class Clause:
    """One clause kind, declared once as a template.

    Template fields: ``{name}`` is an integer, ``{name:g}`` and
    ``{name:fixed}`` are numbers rendered by :func:`format_g` and
    :func:`format_fixed`, ``{@range}`` is an optional ``@LO`` / ``@LO-HI``
    suffix filling ``lo`` and ``hi`` (``@LO`` means ``@LO-LO``; both are
    None when absent), and ``{/name}`` is an optional ``/TEXT`` suffix kept
    as a string (None when absent).  Everything else is literal text.

    A match builds ``build(**fields, **fixed)``.  The ``fixed`` constants
    (``kind="slow"``) also pick this clause when rendering an item.
    """

    def __init__(self, template: str, build: Callable[..., Any], **fixed: Any):
        self.build = build
        self.fixed = fixed
        pattern, self._readers, self._writers = [], [], []
        for i, piece in enumerate(re.split(r"\{([^}]*)\}", template)):
            if i % 2 == 0:
                regex, write = re.escape(piece), (lambda item, text=piece: text)
            else:
                regex, read, write = _field(piece)
                self._readers.append(read)
            pattern.append(regex)
            self._writers.append(write)
        self.regex = re.compile("".join(pattern))

    def parse(self, text: str) -> Any:
        """The clause's value for ``text``, or None when it does not match."""
        m = self.regex.fullmatch(text)
        if m is None:
            return None
        fields = dict(self.fixed)
        for read in self._readers:
            fields.update(read(m))
        return self.build(**fields)

    def renders(self, item: Any) -> bool:
        return all(getattr(item, k, None) == v for k, v in self.fixed.items())

    def render(self, item: Any) -> str:
        """Canonical text for ``item`` (which :meth:`parse` reads back)."""
        return "".join(write(item) for write in self._writers)


@dataclass(frozen=True)
class ClauseSet:
    """A parsed spec: validated clause items in canonical order.

    Subclasses declare the grammar as class data -- ``clauses``, the clause
    separator ``sep``, the clause ``noun`` and ``expected`` shapes quoted in
    parse errors -- and override :meth:`sort_key`, :meth:`from_clauses`
    (cross-clause shape checks) and :meth:`validate` as needed.
    """

    items: tuple = ()

    clauses: ClassVar[tuple[Clause, ...]] = ()
    sep: ClassVar[str] = ";"
    noun: ClassVar[str] = "clause"
    expected: ClassVar[str] = ""

    def __bool__(self) -> bool:
        return bool(self.items)

    @property
    def spec(self) -> str:
        """Canonical spec string (round-trips through :meth:`parse`)."""
        return self.sep.join(self.render(item) for item in self.items)

    @classmethod
    def render(cls, item: Any) -> str:
        """Canonical clause text for one item."""
        return next(c for c in cls.clauses if c.renders(item)).render(item)

    @classmethod
    def split(cls, spec: str | None) -> list[str]:
        """Stripped, non-blank clause strings; ``""`` and ``"none"`` are none."""
        spec = (spec or "").strip()
        if not spec or spec == "none":
            return []
        return [part.strip() for part in spec.split(cls.sep) if part.strip()]

    @classmethod
    def parse_clause(cls, text: str) -> Any:
        """Match one clause; errors name it (also those its builder raises)."""
        for clause in cls.clauses:
            try:
                item = clause.parse(text)
            except SpecError as err:
                raise SpecError(f"{cls.noun} {text!r}: {err}") from None
            if item is not None:
                return item
        raise SpecError(f"bad {cls.noun} {text!r}; expected {cls.expected}")

    @classmethod
    def parse(cls, spec: str | None, num_osds: int | None = None):
        """Parse, canonicalize and validate; ``num_osds`` enables range checks."""
        parsed = cls.from_clauses([cls.parse_clause(t) for t in cls.split(spec)], spec)
        parsed.validate(num_osds=num_osds)
        return parsed

    @classmethod
    def from_clauses(cls, items: list, spec: str | None):
        return cls(tuple(sorted(items, key=cls.sort_key)))

    @staticmethod
    def sort_key(item: Any) -> Any:
        return 0

    def validate(self, num_osds: int | None = None) -> None:
        pass


@dataclass(frozen=True)
class Band:
    """``value`` for OSDs ``lo..hi`` (inclusive); ``lo is None`` is the
    default band, covering every OSD no ranged band claims."""

    value: float
    lo: int | None = None
    hi: int | None = None


@dataclass(frozen=True)
class BandSet(ClauseSet):
    """``VALUE@LO-HI`` bands with at most one range-free default band.

    Canonical order puts the default band first, then ranged bands by their
    first OSD.  Without a default, the ranged bands must cover the cluster.
    """

    spec_noun: ClassVar[str] = "spec"
    value_noun: ClassVar[str] = "value"
    missing_noun: ClassVar[str] = "rating"

    @staticmethod
    def sort_key(band: Band) -> tuple[int, int]:
        return (-1, -1) if band.lo is None else (band.lo, band.hi)

    @property
    def default(self) -> float | None:
        """The default band's value; None without one."""
        return next((b.value for b in self.items if b.lo is None), None)

    def per_osd(self, num_osds: int) -> np.ndarray:
        """Value per OSD; ``inf`` where no band applies (the empty set)."""
        self.validate(num_osds=num_osds)
        default = self.default
        out = np.full(num_osds, np.inf if default is None else default)
        for band in self.items:
            if band.lo is not None:
                out[band.lo : band.hi + 1] = band.value
        return out

    def validate(self, num_osds: int | None = None) -> None:
        bands = self.items
        defaults = [b for b in bands if b.lo is None]
        if len(defaults) > 1:
            raise SpecError(
                f"{self.spec_noun} {self.spec!r}: at most one default "
                f"(range-free) band is allowed"
            )
        claimed: set[int] = set()
        for band in bands:
            where = f"{self.noun} {self.render(band)!r}"
            if band.value <= 0:
                raise SpecError(f"{where}: {self.value_noun} must be > 0")
            if band.lo is None:
                continue
            if band.lo > band.hi:
                raise SpecError(f"{where}: range is inverted")
            if num_osds is not None and band.hi >= num_osds:
                raise SpecError(
                    f"{where}: OSD {band.hi} out of range for a "
                    f"{num_osds}-OSD cluster"
                )
            span = range(band.lo, band.hi + 1)
            overlap = claimed.intersection(span)
            if overlap:
                raise SpecError(
                    f"{where}: OSD {min(overlap)} is rated by more than one band"
                )
            claimed.update(span)
        if num_osds is not None and bands and not defaults:
            uncovered = sorted(set(range(num_osds)) - claimed)
            if uncovered:
                raise SpecError(
                    f"{self.spec_noun} {self.spec!r}: OSDs {uncovered} have no "
                    f"{self.missing_noun}; add a default band or cover the "
                    f"whole cluster"
                )
