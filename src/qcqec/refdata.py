"""Curated reference instances: small worked codes and collected parameter rows.

Every entry records construction inputs (f, g, extension vectors) plus the
expected classical/quantum parameters used by the table command and the
verification suite.  Expected values are reference targets, not derived here.

Polynomials in table rows use the compact digit notation of
polyring.parse_compact; worked instances store explicit digit tuples.
A row whose code has more messages than the enumeration budget
(pipeline.Evaluation.skipped) is skipped unless a larger budget is given.
"""

from dataclasses import dataclass, field as dc_field

from . import pipeline, polyring
from .gf import field_make

# indexed by the number of extension columns
MODES = ("base", "extend-one", "extend-two")


@dataclass(frozen=True)
class RefCode:
    """A fully worked instance with explicit inputs and expected outputs.

    expect keys (all optional): code / dual as (n, k, d) of the derived
    classical code and its Hermitian dual (d may be None when not recorded),
    qecc / qecc_lengthened as (n, k, d), eaqecc_primal / eaqecc_dual /
    eaqecc_extended as (n, k, d, c), certificate as bool, gv_exceeds as bool.
    """

    name: str
    q: int
    n: int
    f: tuple
    g: tuple
    mode: str
    x1: tuple | None = None
    x2: tuple | None = None
    alpha1: int = 1
    alpha2: int = 1
    expect: dict = dc_field(default_factory=dict)
    note: str = ""


@dataclass(frozen=True)
class TableRow:
    """One collected parameter row; f/g/x1 in compact notation.

    code/dual/qecc are (n, k, d) triples, eaqecc is (n, k, d, c).
    """

    family: str
    q: int
    n: int
    f: str
    g: str
    x1: str | None = None
    code: tuple | None = None
    dual: tuple | None = None
    qecc: tuple | None = None
    eaqecc: tuple | None = None
    note: str = ""

    def field(self):
        return field_make(self.q)

    def polys(self):
        fld = self.field()
        f = polyring.parse_compact(fld, self.f, self.n)
        g = polyring.trim(polyring.parse_compact(fld, self.g))
        x1 = polyring.parse_compact(fld, self.x1, self.n) if self.x1 else None
        return f, g, x1

    def evaluation(self, **options) -> pipeline.Evaluation:
        """The row's code in the pipeline: extended by x1 for a stabilizer
        row, the base code for an assisted one.  options go to Evaluation."""
        f, g, x1 = self.polys()
        xs = (x1,) if self.family.startswith("stabilizer") else ()
        return pipeline.Evaluation(self.field(), self.n, f, g, xs, **options)


REFERENCE_CODES = (
    RefCode(
        name="q2-n15-extend-one",
        q=2, n=15,
        f=(1, 2, 2, 2),
        g=(1, 2, 2, 0, 3, 1, 0, 1, 3, 1),
        mode="extend-one",
        x1=(1, 3, 2) * 5,
        expect={
            "code": (31, 7, 16),
            "dual": (31, 24, 5),
            "qecc": (31, 17, 5),
            "qecc_lengthened": (32, 17, 5),
        },
    ),
    RefCode(
        name="q3-n10-extend-two",
        q=3, n=10,
        f=(1, 5, 2, 1),
        g=(5, 3, 1, 0, 5, 7, 1),
        mode="extend-two",
        x1=(1, 1, 8, 2, 1, 2, 2, 6, 0, 1),
        x2=(1, 7, 3, 8, 5, 7, 7, 0, 3, 2),
        expect={
            "code": (22, 6, 10),
            "dual": (22, 16, 5),
            "qecc": (22, 10, 5),
            "gv_exceeds": True,
        },
    ),
    RefCode(
        name="q2-n51-extend-one",
        q=2, n=51,
        f=(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1, 2),
        g=(2, 2, 2, 1, 0, 2, 0, 0, 0, 3, 1, 1, 2, 2, 0, 3, 0, 2,
           3, 0, 2, 0, 2, 1, 2, 1, 2, 0, 0, 0, 3, 0, 3, 3, 2, 1),
        mode="extend-one",
        x1=(1, 2, 0, 0, 0, 3, 2, 0, 2, 3, 3, 0, 2, 3, 1, 3, 0, 2,
            2, 3, 2, 3, 0, 3, 1, 3, 2, 1, 2, 2, 3, 0, 2, 1, 3, 3,
            1, 0, 2, 0, 3, 0, 1, 2, 2, 0, 1, 3, 3, 0, 0),
        expect={
            "code": (103, 17, 38),
            "dual": (103, 86, 7),
            "qecc": (103, 69, 7),
        },
    ),
    RefCode(
        name="q2-n7-base",
        q=2, n=7,
        f=(0, 3, 2, 3, 2, 1),
        g=(1, 1),
        mode="base",
        expect={
            "code": (14, 6, 7),
            "certificate": True,
            "eaqecc_primal": (14, 6, 7, 8),
        },
    ),
    RefCode(
        name="q2-n11-base",
        q=2, n=11,
        f=(0, 1, 3, 2, 1),
        g=(1, 2, 2, 0, 3, 3, 1),
        mode="base",
        expect={
            "code": (22, 5, 13),
            "dual": (22, 17, 4),
            "certificate": True,
            "eaqecc_dual": (22, 17, 4, 5),
        },
    ),
    RefCode(
        name="q9-n10-extend-two",
        q=9, n=10,
        f=(1, 3, 15),
        g=(49, 45, 11, 37, 53, 59, 45, 1),
        mode="extend-two",
        x1=(45, 72, 57, 23, 53, 74, 34, 59, 59, 34),
        x2=(19, 42, 41, 11, 18, 32, 72, 62, 67, 76),
        expect={
            "code": (22, 5, 11),
            "dual": (22, 17, 5),
            "certificate": True,
            "eaqecc_extended": (22, 17, 5, 5),
        },
        note="distance claims need a full GF(81) enumeration",
    ),
)


STABILIZER_GF4 = (
    TableRow("stabilizer-gf4", 2, 7, "12", "101^3", "(13)^23^21",
             code=(15, 4, 8), dual=(15, 11, 3), qecc=(15, 7, 3)),
    TableRow("stabilizer-gf4", 2, 17, "3^31", "132^20^22^231", "13^210^42^230(21)^20",
             code=(35, 9, 14), dual=(35, 26, 5), qecc=(35, 17, 5),
             note="listed auxiliary vector gives extended distance 12, not "
                  "the stated 14: the code has a single scalar orbit of "
                  "weight-12 words (A_12 = 3); other qualifying vectors do "
                  "reach 14, and the dual and quantum parameters hold"),
    TableRow("stabilizer-gf4", 2, 23, "1^623", "10(100)^21^5", "10232^20^3313020^232^20^33",
             code=(47, 12, 20), dual=(47, 35, 6), qecc=(47, 23, 6),
             note="listed auxiliary vector gives extended distance 14, not "
                  "the stated 20: A_14 = 3 with nothing at 16 or 18; other "
                  "qualifying vectors do reach 20, and the dual and quantum "
                  "parameters hold"),
    TableRow("stabilizer-gf4", 2, 29, "1^9212", "12(331)^2(133)^221",
             "1021^30^4103^2203^201^2(21)^2131^2",
             code=(59, 15, 24), dual=(59, 44, 7), qecc=(59, 29, 7)),
    TableRow("stabilizer-gf4", 2, 31, "1^73", "1^701^2(01)^210^2101^3",
             "10^2132301^2013101^223^2030201^2313^2",
             code=(63, 11, 24), dual=(63, 52, 5), qecc=(63, 41, 5)),
    TableRow("stabilizer-gf4", 2, 31, "1^{12}212", "10^31^40^410^21^2",
             "(10)^2020^213^20^213031^20212012^21321",
             code=(63, 16, 22), dual=(63, 47, 7), qecc=(63, 31, 7)),
    TableRow("stabilizer-gf4", 2, 37, "1^{14}2013", "12^2020132^4310202^21",
             "(10^2)^23^22^3310^21^22^21310^23230102120102",
             code=(75, 19, 26), dual=(75, 56, 8), qecc=(75, 37, 8)),
    TableRow("stabilizer-gf4", 2, 39, "1^{14}3203", "121^3302^312^21302^213^21",
             "1^203^32^43230312313(23)^203(20)^23^21210^33",
             code=(79, 19, 32), dual=(79, 60, 8), qecc=(79, 41, 8)),
    TableRow("stabilizer-gf4", 2, 41, "1^72^21", "131210(31)^21012^23^22^2101^2313012131",
             "130^3232012^212012^23^220(3101)^221203^203020",
             code=(83, 11, 30), dual=(83, 72, 5), qecc=(83, 61, 5)),
    TableRow("stabilizer-gf4", 2, 55, "1^{10}2", "130132^230203^22131(0^22)^23^310^210210(31)^232^301",
             "(13)^221^30^21302^332102^21^2202(30)^32^43^203^2210^320232^203",
             code=(111, 13, 46), dual=(111, 98, 5), qecc=(111, 85, 5),
             note="listed auxiliary vector gives extended distance 42, not "
                  "the stated 46 (A_42 = 3, one scalar orbit); other "
                  "qualifying vectors do reach 46, and the dual and quantum "
                  "parameters hold"),
    TableRow("stabilizer-gf4", 2, 63, "1^{12}212",
             "31231^232030^33^2012^31213^202302^23213(10)^231^20^21^2210121",
             "1^20232^3321310^22131210^2201^3030121^42^412^401(32)^2013^201^202^3",
             code=(127, 13, 52), dual=(127, 114, 5), qecc=(127, 101, 5)),
    TableRow("stabilizer-gf4", 2, 63, "1^{12}212",
             "31^532^30^2231^23203^21^330^42^212^201203123^21^23231",
             "10^2303(20)^2121^32^3121^202^31^23123(12)^323213231323^202^3(30)^212310",
             code=(127, 16, 50), dual=(127, 111, 6), qecc=(127, 95, 6)),
)

STABILIZER_GF9 = (
    TableRow("stabilizer-gf9", 3, 11, "12486", "15^3101", "126245487^3",
             code=(23, 6, 12), dual=(23, 17, 5), qecc=(23, 11, 5)),
    TableRow("stabilizer-gf9", 3, 17, "1^45121", "5215371561", "1^23680^21726823472",
             code=(35, 9, 16), dual=(35, 26, 6), qecc=(35, 17, 6)),
    TableRow("stabilizer-gf9", 3, 23, "1^8212", "150(51)^2(10)^201", "18452373054381^26383157^2",
             code=(47, 12, 23), dual=(47, 35, 7), qecc=(47, 23, 7)),
    TableRow("stabilizer-gf9", 3, 35, "1^621", "5208270^2(75)^2540276513148^2731",
             "1050^22676308^2316^202384^20^373487^280^2",
             code=(71, 9, 26), dual=(71, 62, 5), qecc=(71, 53, 5),
             note="listed auxiliary vector is not in the block dual and has "
                  "self product 0, so it cannot witness the extension; "
                  "kept as collected"),
    TableRow("stabilizer-gf9", 3, 41, "1^206", "583540135073452^26126526^218730175081741",
             "1743516718^230141^2786273^281(28)^2245^28631^242",
             code=(83, 5, 39), dual=(83, 78, 4), qecc=(83, 73, 4),
             note="listed auxiliary vector gives extended distance 41 "
                  "(A_41 = 8, one scalar orbit, nothing below), better than "
                  "the stated 39; most sampled qualifying vectors give 39, "
                  "and the dual and quantum parameters hold"),
    TableRow("stabilizer-gf9", 3, 65, "1^921",
             "173681^2057206^22847641684587643^2746825^280^21340275868531",
             "17361^28^225412708058626127^2805(26)^212^27080(08)^2128642857381682^264214",
             code=(131, 12, 59), dual=(131, 119, 6), qecc=(131, 107, 6),
             note="listed g (degree 53) does not divide x^65 - 1, and the "
                  "stated dimension 12 disagrees with the 13 that degree "
                  "would give; row is unconstructable as collected"),
)

ASSISTED_PRIMAL = (
    TableRow("assisted-primal", 2, 15, "320213", "1^30^21^3",
             eaqecc=(30, 8, 15, 22)),
    TableRow("assisted-primal", 2, 17, "1213^201", "1(10)^2(01)^21",
             eaqecc=(34, 8, 18, 26)),
    TableRow("assisted-primal", 2, 21, "1^623201^2", "1320^4321",
             eaqecc=(42, 10, 17, 32),
             note="stated net dimension 10 and entanglement 32 imply "
                  "deg(g) = 11, but the listed g has degree 9 (and the "
                  "listed f, degree 11, is a unit in the ambient ring, so "
                  "they cannot simply be interchanged); the construction "
                  "yields [[42,12,17;30]] with the stated distance"),
    TableRow("assisted-primal", 2, 31, "1^60201", "10^31^3010^4101^30^31",
             eaqecc=(62, 10, 32, 52)),
    TableRow("assisted-primal", 2, 35, "1^523^31", "12031301203^22^20310212031",
             eaqecc=(70, 12, 37, 58)),
    TableRow("assisted-primal", 2, 41, "1^9232", "1^30^4(10)^2(01)^20^41^3",
             eaqecc=(82, 20, 33, 62)),
)

ASSISTED_DUAL = (
    TableRow("assisted-dual", 2, 17, "31^22^2", "1(10)^2(01)^21",
             eaqecc=(34, 26, 5, 8)),
    TableRow("assisted-dual", 2, 19, "1^52031", "132^20103^221",
             eaqecc=(38, 29, 5, 9)),
    TableRow("assisted-dual", 2, 31, "1^721", "10^31^3010^4101^30^31",
             eaqecc=(62, 52, 5, 10)),
)

TABLES = {
    "stabilizer-gf4": STABILIZER_GF4,
    "stabilizer-gf9": STABILIZER_GF9,
    "assisted-primal": ASSISTED_PRIMAL,
    "assisted-dual": ASSISTED_DUAL,
}


def find_reference(name: str) -> RefCode:
    for rc in REFERENCE_CODES:
        if rc.name == name:
            return rc
    raise KeyError(name)
