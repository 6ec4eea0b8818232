"""Spec-grammar toolkit (edm.spec) and the porting contract.

The faults / endurance / service / topology / redundancy grammars are
declared as data on top of edm.spec: :class:`Clause` templates collected in
:class:`ClauseSet` / :class:`BandSet` subclasses.  The toolkit's own
behaviors are unit-tested first, on toy grammars; the round-trip pins then
assert the **porting contract**: canonical spec strings, error messages,
config hashes and cache-key suffixes are byte-identical to what the earlier
hand-rolled parsers produced, so every previously written cache entry (and
every pinned golden digest) survives.
"""

import re
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import cfg_factory
from edm.config import config_hash
from edm.endurance import EnduranceModel
from edm.faults import FaultPlan
from edm.redundancy import RedundancyScheme
from edm.service import ServiceModel
from edm.topology import TopologyPlan
from edm.spec import (
    Band,
    BandSet,
    Clause,
    ClauseSet,
    SpecError,
    format_fixed,
    format_g,
)

# --- number rendering --------------------------------------------------------


@pytest.mark.parametrize("x,expected", [
    (0.5, "0.5"),
    (1.0, "1"),
    (0.25, "0.25"),
    (1000000.0, "1e+06"),  # %g switches to scientific -- why bands use fixed
])
def test_format_g(x, expected):
    assert format_g(x) == expected


@pytest.mark.parametrize("x,expected", [
    (3000.0, "3000"),
    (1000000.0, "1000000"),  # never scientific: must re-parse under \d+(\.\d+)?
    (0.5, "0.5"),
    (812.25, "812.25"),
])
def test_format_fixed_round_trips(x, expected):
    assert format_fixed(x) == expected
    assert float(format_fixed(x)) == x


# --- Clause templates --------------------------------------------------------


@dataclass(frozen=True)
class Item:
    kind: str
    n: int
    x: float = 1.0


class Toy(ClauseSet):
    noun = "toy clause"
    expected = "'a:N' or 'b:NxF'"
    clauses = (
        Clause("a:{n}", Item, kind="a"),
        Clause("b:{n}x{x:g}", Item, kind="b"),
    )

    @staticmethod
    def sort_key(item):
        return item.n


RANGED = Clause("{value:fixed}{@range}", Band)


def test_range_field_reads_single_osd_as_degenerate_range():
    assert RANGED.parse("5") == Band(5.0)
    assert RANGED.parse("5@3") == Band(5.0, 3, 3)
    assert RANGED.parse("5@0-7") == Band(5.0, 0, 7)
    assert RANGED.parse("5@0-7-9") is None


def test_range_field_renders_what_it_parses():
    assert RANGED.render(Band(5.0)) == "5"
    assert RANGED.render(Band(5.0, 3, 3)) == "5@3"
    assert RANGED.render(Band(1e6, 0, 7)) == "1000000@0-7"


def test_template_fields_convert_and_render_canonically():
    assert Toy.parse_clause("b:03x0.50") == Item("b", 3, 0.5)
    assert Toy.render(Item("b", 3, 0.5)) == "b:3x0.5"
    assert Toy.render(Item("a", 7)) == "a:7"
    # Items sort by the set's key; the spec joins the rendered clauses.
    assert Toy.parse("b:2x0.50;a:1").spec == "a:1;b:2x0.5"


def test_suffix_field_is_optional_raw_text():
    clause = Clause("t:{n}{/rest}", dict)
    assert clause.parse("t:1") == {"n": 1, "rest": None}
    assert clause.parse("t:1/") == {"n": 1, "rest": ""}
    assert clause.parse("t:1/a:2,b:3") == {"n": 1, "rest": "a:2,b:3"}
    assert clause.parse("t:1/a/b") is None
    assert clause.render(SimpleNamespace(n=1, rest=None)) == "t:1"
    assert clause.render(SimpleNamespace(n=1, rest="a:2")) == "t:1/a:2"


# --- ClauseSet tokenization and matching -------------------------------------


@pytest.mark.parametrize("spec", ["", "   ", "none", None])
def test_split_empty_spellings_mean_no_clauses(spec):
    assert Toy.split(spec) == []
    parsed = Toy.parse(spec)
    assert not parsed and parsed.items == () and parsed.spec == ""


def test_split_strips_and_drops_blank_clauses():
    assert Toy.split(" a:1 ; ;a:2;") == ["a:1", "a:2"]
    assert Toy.parse("a:2; a:1").items == (Item("a", 1), Item("a", 2))


def test_parse_error_names_the_offending_clause():
    with pytest.raises(SpecError) as err:
        Toy.parse("a:1;c:9")
    assert str(err.value) == "bad toy clause 'c:9'; expected 'a:N' or 'b:NxF'"


def test_builder_errors_name_the_clause():
    def build(n):
        raise SpecError(f"n={n} is unlucky")

    class Unlucky(ClauseSet):
        noun = "toy clause"
        clauses = (Clause("u:{n}", build),)

    with pytest.raises(SpecError) as err:
        Unlucky.parse("u:013")
    assert str(err.value) == "toy clause 'u:013': n=13 is unlucky"


def test_spec_error_is_a_value_error():
    # Call sites that predate SpecError catch ValueError; the subclass keeps
    # them working.
    assert issubclass(SpecError, ValueError)
    with pytest.raises(ValueError):
        Toy.parse("nope")


# --- BandSet -----------------------------------------------------------------


class ToyBands(BandSet):
    sep = ","
    noun = "toy band"
    expected = "'V', 'V@OSD' or 'V@LO-HI'"
    clauses = (RANGED,)
    spec_noun = "toy spec"
    value_noun = "toy value"


def check(bands, num_osds=8):
    ToyBands(tuple(bands)).validate(num_osds=num_osds)


def test_band_set_accepts_default_plus_ranges():
    check([Band(5), Band(3, 0, 3), Band(9, 4, 4)])
    check([Band(3, 0, 3), Band(9, 4, 7)])  # no default, full coverage
    check([Band(5)], num_osds=None)  # unknown cluster size: no coverage check


def test_band_set_orders_defaults_and_fills_per_osd():
    bands = ToyBands.parse("9@4,5,3@0-3", num_osds=8)
    assert bands.spec == "5,3@0-3,9@4"  # default first, ranges by first OSD
    assert bands.default == 5.0
    assert bands.per_osd(8).tolist() == [3.0] * 4 + [9.0] + [5.0] * 3
    covered = ToyBands.parse("9@4-7,3@0-3", num_osds=8)
    assert covered.default is None
    assert covered.per_osd(8).tolist() == [3.0] * 4 + [9.0] * 4
    assert np.isinf(ToyBands().per_osd(3)).all()  # the empty set: unlimited


@pytest.mark.parametrize("bands,message", [
    ([Band(1), Band(2)], r"toy spec '1,2': at most one default \(range-free\) band"),
    ([Band(0, 0, 7)], r"toy band '0@0-7': toy value must be > 0"),
    ([Band(1), Band(2, 5, 3)], r"toy band '2@5-3': range is inverted"),
    ([Band(1), Band(2, 6, 9)], r"toy band '2@6-9': OSD 9 out of range for a 8-OSD cluster"),
    ([Band(1, 0, 4), Band(2, 3, 7)], r"toy band '2@3-7': OSD 3 is rated by more than one band"),
    ([Band(1, 0, 3)],
     r"toy spec '1@0-3': OSDs \[4, 5, 6, 7\] have no rating; add a default band "
     r"or cover the whole cluster"),
], ids=["two-defaults", "non-positive", "inverted", "out-of-range", "overlap", "uncovered"])
def test_band_set_rejections(bands, message):
    with pytest.raises(SpecError, match=message):
        check(bands)


# --- porting contract: canonical strings are byte-identical ------------------
# These exact strings were produced by the pre-toolkit parsers; a flip here
# means config_hash values moved and every cached result silently went stale.

FAULT_PINS = [
    ("fail:3@100", "fail:3@100"),
    ("slow:5@050x0.50", "slow:5@50x0.5"),
    ("hiccup:2@60+10x0.25", "hiccup:2@60+10x0.25"),
    # Events sort by (epoch, kind, osd); numbers normalize through %g.
    ("fail:3@100;slow:5@50x0.5", "slow:5@50x0.5;fail:3@100"),
    ("slow:7@8x1.0;fail:6@8;hiccup:1@8+2x0.5", "fail:6@8;hiccup:1@8+2x0.5;slow:7@8x1"),
]

ENDURANCE_PINS = [
    ("pe:5000", "pe:5000"),
    ("pe:5000.0", "pe:5000"),
    # Default band first, ranged bands by first OSD; fixed-point rendering.
    ("pe:10000@4-7,3000@0-3", "pe:3000@0-3,10000@4-7"),
    ("pe:300@2,5000", "pe:5000,300@2"),
    ("pe:1000000", "pe:1000000"),  # format_fixed, never 1e+06
]

SERVICE_PINS = [
    ("rate:800", "rate:800"),
    ("rate:800.0;queue:64", "rate:800;queue:64"),
    # Default rate first, ranged rates by first OSD, queue clause last.
    ("queue:64;rate:400@4-7;rate:800", "rate:800;rate:400@4-7;queue:64"),
    ("rate:800@4-7;rate:400@0-3", "rate:400@0-3;rate:800@4-7"),
]


@pytest.mark.parametrize("spelled,canonical", FAULT_PINS)
def test_fault_plan_canonical_pins(spelled, canonical):
    plan = FaultPlan.parse(spelled, num_osds=8)
    assert plan.spec == canonical
    assert FaultPlan.parse(plan.spec, num_osds=8).spec == canonical  # round-trip


@pytest.mark.parametrize("spelled,canonical", ENDURANCE_PINS)
def test_endurance_model_canonical_pins(spelled, canonical):
    model = EnduranceModel.parse(spelled, num_osds=8)
    assert model.spec == canonical
    assert EnduranceModel.parse(model.spec, num_osds=8).spec == canonical


@pytest.mark.parametrize("spelled,canonical", SERVICE_PINS)
def test_service_model_canonical_pins(spelled, canonical):
    model = ServiceModel.parse(spelled, num_osds=8)
    assert model.spec == canonical
    assert ServiceModel.parse(model.spec, num_osds=8).spec == canonical


REDUNDANCY_PINS = [
    ("rep:3", "rep:3"),
    ("rep:03", "rep:3"),  # leading zeros normalize away
    ("ec:4+2", "ec:4+2"),
    ("ec:04+02", "ec:4+2"),
    (" rep:2 ", "rep:2"),
]


@pytest.mark.parametrize("spelled,canonical", REDUNDANCY_PINS)
def test_redundancy_scheme_canonical_pins(spelled, canonical):
    scheme = RedundancyScheme.parse(spelled, num_osds=8)
    assert scheme.spec == canonical
    assert RedundancyScheme.parse(scheme.spec, num_osds=8).spec == canonical


@pytest.mark.parametrize("spec", ["", "   ", "none"])
def test_redundancy_empty_spellings_mean_no_scheme(spec):
    scheme = RedundancyScheme.parse(spec, num_osds=8)
    assert not scheme
    assert scheme.spec == ""


# --- porting contract: grammar error messages --------------------------------


@pytest.mark.parametrize("factory,spec,message", [
    (FaultPlan, "explode:3@1", r"bad fault event 'explode:3@1'; expected 'fail:OSD@EPOCH'"),
    (EnduranceModel, "pe:abc", r"bad endurance band 'abc'; expected 'CYCLES'"),
    (EnduranceModel, "3000", r"bad endurance spec '3000'; expected 'pe:CYCLES'"),
    (ServiceModel, "rate:-5", r"bad service clause 'rate:-5'; expected 'rate:RATE'"),
    (ServiceModel, "queue:64", r"no rate clause; at least one 'rate:RATE' is required"),
    (RedundancyScheme, "par:3",
     r"bad redundancy scheme 'par:3'; expected 'rep:N' \(N-way replication\) "
     r"or 'ec:M\+K' \(M data \+ K parity\)"),
    (RedundancyScheme, "rep:1",
     r"redundancy scheme 'rep:1': replication needs at least 2 copies "
     r"\('none' = no redundancy\)"),
    (RedundancyScheme, "ec:0+1",
     r"redundancy scheme 'ec:0\+1': erasure coding needs at least 1 data "
     r"and 1 parity chunk"),
    (RedundancyScheme, "ec:4+0",
     r"redundancy scheme 'ec:4\+0': erasure coding needs at least 1 data "
     r"and 1 parity chunk"),
    (RedundancyScheme, "rep:2;rep:3",
     r"bad redundancy spec 'rep:2;rep:3': exactly one scheme is allowed, got 2"),
    (RedundancyScheme, "ec:7+3",
     r"redundancy scheme 'ec:7\+3' needs 10 distinct OSDs per group, "
     r"but the cluster has 8"),
])
def test_grammar_error_messages_unchanged(factory, spec, message):
    with pytest.raises(SpecError, match=message):
        factory.parse(spec, num_osds=8)


# --- fuzz: parse -> canonicalize -> parse is idempotent for every grammar ----
# Randomly assembled *well-formed* specs must canonicalize to a fixed point
# (parse(canonical).spec == canonical); randomly mutated garbage must fail
# with a deterministic SpecError, never an unrelated exception.  Seeded RNG,
# so any failure reproduces exactly.


def _fuzz_fragments(rng):
    """One random well-formed spec per grammar, drawn from clause templates."""
    e = lambda: int(rng.integers(1, 200))
    osd = lambda: int(rng.integers(0, 8))
    return {
        FaultPlan: ";".join(
            rng.permutation([
                f"fail:{osd()}@{e()}",
                f"slow:{osd()}@{e()}x0.{rng.integers(1, 9)}",
                f"hiccup:{osd()}@{e()}+{int(rng.integers(1, 9))}x0.{rng.integers(1, 9)}",
            ]).tolist()[: int(rng.integers(1, 4))]
        ),
        EnduranceModel: rng.choice([
            f"pe:{int(rng.integers(100, 99999))}",
            f"pe:{int(rng.integers(100, 9999))}@0-3,{int(rng.integers(100, 9999))}@4-7",
            f"pe:0{int(rng.integers(100, 9999))}.0",
        ]),
        ServiceModel: rng.choice([
            f"rate:{int(rng.integers(1, 2000))}",
            f"queue:{int(rng.integers(1, 256))};rate:{int(rng.integers(1, 2000))}",
            f"rate:{int(rng.integers(1, 2000))}@4-7;rate:{int(rng.integers(1, 2000))}@0-3",
        ]),
        TopologyPlan: rng.choice([
            f"add:{int(rng.integers(1, 4))}@{e()}",
            f"add:{int(rng.integers(1, 4))}@{e()}/cap:{int(rng.integers(1, 4))}",
            f"drain:{osd()}@{e()}",
        ]),
        RedundancyScheme: rng.choice([
            f"rep:{int(rng.integers(2, 9))}",
            f"ec:{int(rng.integers(1, 5))}+{int(rng.integers(1, 4))}",
            f"rep:0{int(rng.integers(2, 9))}",
        ]),
    }


def test_fuzz_canonicalization_is_idempotent():
    rng = np.random.default_rng(20260808)
    for _ in range(50):
        for factory, spec in _fuzz_fragments(rng).items():
            parsed = factory.parse(spec, num_osds=8)
            canonical = parsed.spec
            again = factory.parse(canonical, num_osds=8)
            assert again.spec == canonical, (
                f"{factory.__name__}: {spec!r} -> {canonical!r} is not a "
                f"canonical fixed point (re-parses to {again.spec!r})"
            )


def test_fuzz_garbage_fails_deterministically():
    rng = np.random.default_rng(20260808 + 1)
    alphabet = list("abcxyz:@+-.;,|0123456789 ")
    factories = (FaultPlan, EnduranceModel, ServiceModel, TopologyPlan, RedundancyScheme)
    rejected = 0
    for _ in range(100):
        garbage = "".join(rng.choice(alphabet, size=int(rng.integers(1, 24))))
        for factory in factories:
            try:
                first = factory.parse(garbage, num_osds=8)
            except SpecError as err:
                rejected += 1
                # The message is stable: the same input always produces the
                # byte-identical complaint (what the CLI surfaces to users).
                with pytest.raises(SpecError, match=re.escape(str(err))):
                    factory.parse(garbage, num_osds=8)
            else:
                # Rare accidental valid spec: must still be a fixed point.
                assert factory.parse(first.spec, num_osds=8).spec == first.spec
    assert rejected > 100, "fuzz draw stopped producing rejections"


# --- porting contract: config hashes and cache keys --------------------------


def test_equivalent_spellings_hash_identically():
    a = cfg_factory(
        faults="slow:2@4x0.50;fail:1@8",
        endurance="pe:100000@2-3,1200@0-1",
        service="queue:32;rate:200.0",
    )
    b = cfg_factory(
        faults="fail:1@8;slow:2@4x0.5",
        endurance="pe:1200@0-1,100000@2-3",
        service="rate:200;queue:32",
    )
    assert a == b
    assert config_hash(a) == config_hash(b)
    assert a.cache_name() == b.cache_name()


def test_cache_name_scenario_suffixes_compose_in_order():
    plain = cfg_factory()
    assert plain.cache_name() == "deasna-4osd-cmt-s0.02-r12345"
    serviced = cfg_factory(service="rate:200;queue:32")
    # -q + 8 hex chars of sha256(canonical service spec)
    assert serviced.cache_name().startswith(plain.cache_name() + "-q")
    assert len(serviced.cache_name()) == len(plain.cache_name()) + 10
    assert cfg_factory(service="rate:300").cache_name() != serviced.cache_name()

    everything = cfg_factory(
        faults="fail:1@8", endurance="pe:900", service="rate:200;queue:32"
    )
    name = everything.cache_name()
    assert re.fullmatch(
        re.escape(plain.cache_name())
        + r"-f[0-9a-f]{8}-e[0-9a-f]{8}-q[0-9a-f]{8}",
        name,
    )
