"""Endurance specs: per-OSD rated P/E-cycle budgets.

An :class:`EnduranceModel` is parsed from a compact spec string (the
``endurance`` field of :class:`~edm.config.SimConfig`, or ``--endurance`` on
the CLI) and assigns every OSD a rated lifetime in erase-count units -- the
same units ``osd_wear`` accrues in -- so "wear" gains a notion of how close
each SSD is to dying.  There is no randomness here: ratings are a pure
function of the spec, so endurance-aware runs are exactly as reproducible as
endurance-free ones.

The grammar is ``pe:`` followed by the band clauses of
:class:`EnduranceModel`, joined with ``,`` (no semicolons, so a
semicolon-separated CLI list can carry several scenarios).  Examples::

    pe:5000                    every OSD rated at 5000 cycles
    pe:3000@0-3,10000@4-7      OSDs 0..3 rated 3000, OSDs 4..7 rated 10000
    pe:5000,300@2              default 5000 with one weak drive (OSD 2)

At most one band may omit the ``@`` range; it becomes the default rating for
every OSD not covered by a ranged band.  Without a default band the ranged
bands must cover the whole cluster.  The empty string (or ``"none"``) means
no endurance model: every OSD has an unlimited (infinite) rated lifetime.

Parsing canonicalizes the spec -- default band first, ranged bands sorted by
their first OSD, numbers normalized -- so two spellings of the same model
produce the same ``SimConfig`` content hash and hit the same cache entry.
"""

from __future__ import annotations

from edm.spec import Band, BandSet, Clause, SpecError


class EnduranceModel(BandSet):
    """A validated set of rating bands: rated P/E cycles per OSD.

    ``per_osd(n)`` is the rated lifetime per OSD in wear (erase-count)
    units; the empty model rates every OSD at ``inf`` -- the engine's "no
    endurance" representation, under which every lifetime expression
    (remaining life, predicted wear-out) stays inert.
    """

    sep = ","
    noun = "endurance band"
    expected = "'CYCLES', 'CYCLES@OSD' or 'CYCLES@LO-HI'"
    clauses = (Clause("{value:fixed}{@range}", Band),)
    spec_noun = "endurance spec"
    value_noun = "rated cycles"

    @property
    def spec(self) -> str:
        return "pe:" + super().spec if self else ""

    @classmethod
    def split(cls, spec: str | None) -> list[str]:
        """Strip the ``pe:`` prefix; a prefix with no bands is an error."""
        spec = (spec or "").strip()
        if not spec or spec == "none":
            return []
        if not spec.startswith("pe:"):
            raise SpecError(
                f"bad endurance spec {spec!r}; expected 'pe:CYCLES' or "
                f"'pe:CYCLES@LO-HI,...' ('none' = unlimited endurance)"
            )
        bands = super().split(spec[3:])
        if not bands:
            raise SpecError(f"bad endurance spec {spec!r}: no rating bands")
        return bands
