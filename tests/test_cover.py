"""The Z_m^2 voltage cover against Todd-Coxeter, and its certificate."""

import pickle

import numpy as np
import pytest

from chiral444.families import (EnumerationIncomplete, VerificationError,
                                VerifyOptions, _certify_cover, _cover_images,
                                _todd_coxeter_triple, _voltages,
                                family_presentation, member_triple,
                                reference_triple, subgroup_seed_words)
from chiral444.perms import Permutation
from chiral444.polytope import intersection_condition, quotient_criterion


def _base(family):
    return np.stack([p.images for p in reference_triple(family).sigma]).astype(np.int64)


def _invariants(t, ref):
    s1, s2, s3 = t.sigma
    return {
        "order": t.group.order(),
        "s1s2": t.group.subgroup([s1, s2]).order(),
        "s2s3": t.group.subgroup([s2, s3]).order(),
        "intersection": intersection_condition(t),
        "criterion": quotient_criterion(t, ref),
        "derived_length": t.group.derived_length(),
    }


@pytest.mark.parametrize("family", ["P", "Q"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_cover_matches_todd_coxeter(family, m):
    # HLT, so that even at m = 1 the table is not the Felsch reference's
    ref = reference_triple(family)
    cover = _invariants(member_triple(family, m), ref)
    tc = _invariants(_todd_coxeter_triple(family, m, VerifyOptions(strategy="hlt")), ref)
    assert cover == tc
    assert cover["order"] == (1024 if family == "P" else 2048) * m * m
    if family == "P" and m in (1, 3):
        # the family-P odd-m finding (ROADMAP item 1) survives the cover
        assert cover["intersection"] is False


def test_member_triple_m1_is_the_reference():
    t, ref = member_triple("Q", 1), reference_triple("Q")
    assert t.sigma is ref.sigma and t.presentation is ref.presentation
    assert t.group is not ref.group and t.group.order() == 2048


@pytest.mark.parametrize("family", ["P", "Q"])
def test_voltages_determine_every_edge(family):
    base = _base(family)
    n = base.shape[1]
    phi = _voltages(family, base)
    assert phi.shape == (3, n, 2)
    # _voltages raises on an undetermined edge; here the walks of x and y
    # from the identity are summed edge by edge, independently of it
    for word, target in zip(subgroup_seed_words(family), ((1, 0), (0, 1))):
        pt, total = 0, np.zeros(2, dtype=np.int64)
        for x in word.letters:
            g = abs(x) - 1
            if x > 0:
                total += phi[g, pt]
                pt = int(base[g, pt])
            else:
                pt = int(np.flatnonzero(base[g] == pt)[0])
                total -= phi[g, pt]
        assert pt == 0 and tuple(total) == target


def test_corrupted_voltage_fails_the_certificate():
    base = _base("P")
    phi = _voltages("P", base)
    pres = family_presentation("P", 2)
    _certify_cover(pres, [Permutation(img) for img in _cover_images(base, phi, 2)])
    bad = phi.copy()
    bad[1, 5, 0] += 1
    with pytest.raises(VerificationError, match="relator"):
        _certify_cover(pres, [Permutation(img) for img in _cover_images(base, bad, 2)])


def test_small_conjugation_cap_raises():
    # 4000 cosets complete P's m = 1 table (about 1060) but not the
    # conjugation proof (about 16,000)
    with pytest.raises(EnumerationIncomplete) as info:
        member_triple("P", 2, VerifyOptions(max_cosets=4000))
    assert info.value.stage == "conjugation" and info.value.cap == 4000


def test_errors_survive_pickling():
    exc = pickle.loads(pickle.dumps(EnumerationIncomplete("enumerate", 1000)))
    assert type(exc) is EnumerationIncomplete
    assert (exc.stage, exc.cap) == ("enumerate", 1000)
    assert str(exc) == str(EnumerationIncomplete("enumerate", 1000))
    exc = pickle.loads(pickle.dumps(VerificationError("cover", "not transitive")))
    assert type(exc) is VerificationError
    assert (exc.stage, str(exc)) == ("cover", "[cover] not transitive")
