"""Parameter derivations pinned to the reference codes in test_qcc."""

import pytest

import oracles
from qcqec import famat, qcc, quantum, refdata, wdist
from qcqec.errors import PreconditionError, SpecError
from qcqec.gf import field_make

GF4 = field_make(2)
GF9 = field_make(3)
GF81 = field_make(9)


def built(name):
    rc = refdata.find_reference(name)
    code = qcc.build(field_make(rc.q), rc.n, rc.f, rc.g)
    if rc.mode == "extend-one":
        return code, qcc.extend_one(code, rc.x1, rc.alpha1)
    if rc.mode == "extend-two":
        return code, qcc.extend_two(code, rc.x1, rc.x2, rc.alpha1, rc.alpha2)
    return code, None

EXT15_WEIGHTS = {0: 1, 16: 3, 18: 630, 20: 2520, 22: 3900, 24: 5400, 26: 3150, 28: 780}
EXT10_WEIGHTS = {
    0: 1, 10: 16, 12: 8, 13: 80, 14: 624, 15: 3376, 16: 11192,
    17: 32856, 18: 71520, 19: 118336, 20: 142128, 21: 112664, 22: 38640,
}
BASE11_WEIGHTS = {0: 1, 13: 66, 14: 66, 15: 198, 16: 264, 17: 99, 18: 132, 19: 132, 20: 33, 21: 33}


def dense(n, sparse):
    return tuple(sparse.get(w, 0) for w in range(n + 1))


def test_qecc_from_one_column_extension_gf4():
    _, ext = built("q2-n15-extend-one")
    enum = wdist.enumerate_code(ext.G)
    assert enum.counts == dense(31, EXT15_WEIGHTS)
    dual = wdist.macwilliams(enum, 4)
    assert dual.counts[5] == 2709
    assert dual.counts[31] == 37699888887

    params = quantum.qecc_from_self_orthogonal(2, enum, dual)
    assert params == quantum.QeccParams(2, 31, 17, 5, pure=True)
    assert str(params) == "[[31,17,5]]_2"
    assert quantum.lengthen(params) == quantum.QeccParams(2, 32, 17, 5, None)


def test_qecc_from_two_column_extension_gf9():
    _, ext = built("q3-n10-extend-two")
    enum = wdist.enumerate_code(ext.G)
    assert enum.counts == dense(22, EXT10_WEIGHTS)
    params = quantum.qecc_from_self_orthogonal(3, enum, wdist.macwilliams(enum, 9))
    assert params == quantum.QeccParams(3, 22, 10, 5, pure=True)
    verdict = quantum.gv_verdict(3, 22, 10, 5)
    assert verdict.exceeds


def test_gv_threshold_values():
    v = quantum.gv_verdict(3, 22, 10, 5)
    assert v.applicable
    assert v.lhs == 597871
    assert v.rhs == 3845710
    assert v.guaranteed is False and v.exceeds is True


def test_gv_not_applicable():
    assert not quantum.gv_verdict(2, 15, 4, 3).applicable  # n - k odd
    assert not quantum.gv_verdict(2, 10, 1, 3).applicable  # k < 2
    assert not quantum.gv_verdict(2, 10, 2, 1).applicable  # d < 2
    v = quantum.gv_verdict(2, 15, 4, 3)
    assert v.lhs is None and v.guaranteed is None and v.exceeds is None


def test_gv_guaranteed_case():
    v = quantum.gv_verdict(2, 6, 2, 2)
    assert v.applicable and v.lhs == 21 and v.rhs == 6
    assert v.guaranteed is True and v.exceeds is False


def test_maximal_pair_gf4_n7():
    code, _ = built("q2-n7-base")
    assert quantum.entanglement_count(code) == 8
    enum = wdist.enumerate_code(code.G)
    assert enum.distance() == 7
    dual_d = wdist.macwilliams(enum, 4).distance()
    cert = qcc.entanglement_certificate(code)
    pair = quantum.maximal_pair(code, enum.distance(), dual_d, cert)
    assert pair.primal == quantum.EaqeccParams(2, 14, 6, 7, 8)
    assert pair.primal.maximal and pair.dual.maximal
    assert str(pair.primal) == "[[14,6,7;8]]_2"
    assert pair.primal.c + pair.dual.c == 14
    assert pair.primal.k + pair.dual.k == 14
    # the direct check-rank route gives the primal family member
    assert oracles.eaqecc_from_qc(code, 7) == pair.primal


def test_maximal_pair_gf4_n11():
    code, _ = built("q2-n11-base")
    enum = wdist.enumerate_code(code.G)
    assert enum.counts == dense(22, BASE11_WEIGHTS)
    dual = wdist.macwilliams(enum, 4)
    assert dual.counts[4] == 627
    assert dual.counts[22] == 30644469
    pair = quantum.maximal_pair(code, 13, dual.distance(),
                                qcc.entanglement_certificate(code))
    assert pair.dual == quantum.EaqeccParams(2, 22, 17, 4, 5)
    assert pair.primal == quantum.EaqeccParams(2, 22, 5, 13, 17)


def test_extended_maximal_gf81():
    code, ext = built("q9-n10-extend-two")
    params = quantum.extended_maximal_eaqecc(ext, 5, qcc.entanglement_certificate(code))
    assert params == quantum.EaqeccParams(9, 22, 17, 5, 5)
    assert params.maximal
    assert str(params) == "[[22,17,5;5]]_9"


def test_extended_maximal_rejects_orthogonal_rule():
    code, ext = built("q2-n15-extend-one")
    cert = qcc.entanglement_certificate(code)
    with pytest.raises(PreconditionError) as e:
        quantum.extended_maximal_eaqecc(ext, 5, cert)
    assert e.value.code == "wrong-rule"


def test_maximal_pair_requires_certificate():
    g15 = refdata.find_reference("q2-n15-extend-one").g
    code = qcc.build(GF4, 15, (1,), g15)
    with pytest.raises(PreconditionError) as e:
        quantum.maximal_pair(code, None, None, qcc.entanglement_certificate(code))
    assert e.value.code == "certificate-failed"


def test_parameter_validation():
    with pytest.raises(SpecError):
        quantum.QeccParams(2, 5, 6, 1)
    with pytest.raises(SpecError):
        quantum.QeccParams(2, 5, 2, 6)
    with pytest.raises(SpecError):
        quantum.EaqeccParams(2, 10, 8, 3, 5)  # k + c > n
    p = quantum.QeccParams(2, 5, 2, None)
    assert str(p) == "[[5,2,?]]_2"


def test_self_dual_code_falls_back_to_dual_distance():
    # [2,1] repetition over GF(4) is Hermitian self-dual: impure set is empty
    g = famat.Mat(GF4, [[1, 1]])
    enum = wdist.enumerate_code(g)
    dual = wdist.macwilliams(enum, 4)
    assert enum.counts == dual.counts
    params = quantum.qecc_from_self_orthogonal(2, enum, dual)
    assert params == quantum.QeccParams(2, 2, 0, 2, pure=True)
