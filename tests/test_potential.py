import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fermigas.potential as potential
from fermigas.lattice import norm2
from fermigas.potential import (Potential, coulomb, evaluate, from_table,
                                load_table, validate, yukawa, zero)
from oracles import ball_points, from_norm2_where, validate_loop


def test_coulomb_values():
    pot = coulomb(1.0)
    assert evaluate(pot, (2, 0, 0)) == 0.25
    assert evaluate(pot, (1, 1, 0)) == 0.5
    assert evaluate(pot, (0, 0, 0)) == 0.0


def test_every_kind_vanishes_at_origin():
    for pot in (coulomb(2.0), yukawa(1.0, 0.5), zero(),
                from_table({(0, 0, 0): 3.0, (1, 0, 0): 1.0})):
        assert evaluate(pot, (0, 0, 0)) == 0.0


def test_yukawa_values():
    pot = yukawa(2.0, 0.5)
    assert evaluate(pot, (1, 0, 0)) == pytest.approx(2.0 / 1.25)


def test_table_defaults_to_zero():
    pot = from_table({(1, 0, 0): 3.0})
    assert evaluate(pot, (0, 1, 0)) == 0.0
    assert evaluate(pot, (1, 0, 0)) == 3.0


def test_negative_coupling_rejected():
    with pytest.raises(ValueError):
        coulomb(-1.0)
    with pytest.raises(ValueError):
        yukawa(-0.1, 1.0)


def test_potential_checks_its_own_fields():
    for kind in ("coulomb", "yukawa"):
        with pytest.raises(ValueError, match="g must be nonnegative, got -1"):
            Potential(kind=kind, g=-1.0)
    with pytest.raises(ValueError, match="unknown potential kind 'foo'"):
        Potential(kind="foo")
    # before, a table kind without a table failed with AttributeError at
    # first use, and a table given to another kind was ignored
    for kind, table in (("table", None), ("coulomb", {(1, 0, 0): 5.0})):
        with pytest.raises(ValueError, match="needs a table, no other kind"):
            Potential(kind=kind, table=table)
    assert Potential(kind="coulomb", g=0.0)((1, 0, 0)) == 0.0


def test_table_keys_must_be_three_integers():
    # before, (0.5, 0, 0) and (-0.5, 0, 0) both stored a value at k = 0
    for table in ({(0.5, 0, 0): 1.0, (-0.5, 0, 0): 1.0},
                  {(1, 0, 0, 7): 1.0, (-1, 0, 0, 7): 1.0}):
        with pytest.raises(ValueError, match="three integral components"):
            from_table(table)
        with pytest.raises(ValueError, match="three integral components"):
            Potential(kind="table", table=table)
    pot = from_table({(np.int64(1), 0, 0): 2.0, (-1, np.int32(0), 0): 2.0})
    assert pot.table == {(1, 0, 0): 2.0, (-1, 0, 0): 2.0}


def test_validate_coulomb_partial_l2_against_direct_sum():
    report = validate(coulomb(1.0), cutoff_radius=10)
    assert report.symmetric and report.nonnegative and report.ok
    direct = sum(norm2(k) ** -2 for k in ball_points(100) if k != (0, 0, 0))
    assert report.partial_l2 == pytest.approx(np.sqrt(direct), rel=1e-12)


def test_validate_flags_missing_mirror():
    report = validate(from_table({(1, 0, 0): 1.0}), cutoff_radius=2)
    assert not report.symmetric
    assert (-1, 0, 0) in report.offenders


def test_validate_flags_negative_mode():
    report = validate(from_table({(1, 0, 0): -1.0, (-1, 0, 0): -1.0}),
                      cutoff_radius=2)
    assert not report.nonnegative


def test_validate_zero_potential():
    report = validate(zero(), cutoff_radius=5)
    assert report.ok and report.partial_l2 == 0.0


_EVEN = {(1, 0, 0): 1.0, (-1, 0, 0): 1.0, (0, 2, 1): 0.5, (0, -2, -1): 0.5}
_VALIDATE_CASES = {
    "coulomb": coulomb(1.3),
    "yukawa": yukawa(0.7, 0.4),
    "zero": zero(),
    "even table": from_table(_EVEN),
    "uneven table": from_table({(1, 0, 0): 1.0, (-1, 0, 0): 2.0,
                                (0, 1, -1): 0.25, (2, 0, 1): 3.0}),
    "negative table": from_table({(1, 0, 0): -1.0, (-1, 0, 0): -1.0,
                                  (0, 0, 1): 2.0, (0, 1, 1): -0.5}),
    "nonzero at the origin": from_table({**_EVEN, (0, 0, 0): 4.0}),
    "keys beyond the cutoff": from_table({**_EVEN, (9, 0, 0): 1.0,
                                          (-9, 0, 0): -1.0, (0, 7, -8): 2.0}),
}


@pytest.mark.parametrize("cutoff", [1, 4, 6])
@pytest.mark.parametrize("name", list(_VALIDATE_CASES))
def test_validate_matches_loop_oracle(name, cutoff):
    pot = _VALIDATE_CASES[name]
    got = validate(pot, cutoff_radius=cutoff)
    assert got == validate_loop(pot, cutoff_radius=cutoff)
    assert type(got.partial_l2) is float
    assert all(type(c) is int for o in got.offenders for c in o)


def test_builtin_kinds_are_even():
    for pot in (coulomb(1.0), yukawa(0.7, 0.3), zero()):
        for k in ball_points(100):
            assert evaluate(pot, k) == evaluate(pot, tuple(-c for c in k))


def test_load_table_roundtrip(tmp_path):
    path = tmp_path / "pot.txt"
    path.write_text(
        "# test potential\n"
        "1 0 0 2.5\n"
        "-1 0 0 2.5   # mirror\n"
        "\n"
        "0 2 0 0.125\n"
        "0 -2 0 0.125\n")
    pot = load_table(path)
    assert evaluate(pot, (1, 0, 0)) == 2.5
    assert evaluate(pot, (0, -2, 0)) == 0.125
    assert evaluate(pot, (5, 5, 5)) == 0.0
    assert validate(pot, cutoff_radius=3).ok


def test_load_table_rejects_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 0 0\n")
    with pytest.raises(ValueError):
        load_table(path)


def test_vectorized_norm_evaluation_matches_scalar():
    for pot in (coulomb(1.5), yukawa(2.0, 0.25), zero()):
        ks = [k for k in ball_points(25)]
        n2 = np.array([norm2(k) for k in ks], dtype=float)
        vec = pot.from_norm2(n2)
        assert vec == pytest.approx([evaluate(pot, k) for k in ks], abs=0.0)


@pytest.mark.parametrize("pot", [coulomb(1.5), yukawa(2.0, 0.25),
                                 yukawa(0.7, 0.0), zero()],
                         ids=["coulomb", "yukawa", "yukawa_mu0", "zero"])
def test_from_norm2_bit_identical_to_where_form(pot):
    norms = np.arange(200)                         # integer norms from 0
    for n2 in (norms, norms.reshape(8, 25), np.array(0), np.array(3),
               norms.astype(float)):
        got, want = pot.from_norm2(n2), from_norm2_where(pot, n2)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_from_norm2_rejects_table():
    with pytest.raises(ValueError, match="not radial"):
        from_table({(1, 0, 0): 1.0}).from_norm2(np.arange(3))


_small = st.integers(-3, 3)
_potentials = st.one_of(
    st.floats(0.0, 10.0).map(coulomb),
    st.tuples(st.floats(0.0, 10.0), st.floats(-3.0, 3.0)).map(
        lambda gm: yukawa(*gm)),
    st.just(zero()),
    # keys in a small box, so queries below fall on it, beside it and beyond it
    st.dictionaries(st.tuples(_small, _small, _small),
                    st.floats(-5.0, 5.0), max_size=40).map(from_table))
_shapes = st.one_of(st.just(()), st.tuples(st.integers(0, 6)),
                    st.tuples(st.integers(1, 3), st.integers(0, 4)))


@settings(max_examples=200, deadline=None)
@given(pot=_potentials,
       pts=_shapes.flatmap(lambda shape: arrays(np.int64, shape + (3,),
                                                elements=st.integers(-5, 5))))
def test_at_matches_evaluate(pot, pts):
    got = pot.at(pts)
    assert got.shape == pts.shape[:-1]
    want = [evaluate(pot, p) for p in pts.reshape(-1, 3).tolist()]
    assert got.ravel().tolist() == want


def test_at_beyond_the_key_range_reads_zero():
    # with keys in |k_i| <= 3 the digit code of (0, 0, 4) is that of (0, 1, -3)
    pot = from_table({(0, 1, -3): 1.0, (0, -1, 3): 1.0, (0, 0, 0): 5.0})
    assert pot.at([[0, 0, 4], [0, 1, -3], [0, 0, 0], [0, 0, 3]]).tolist() == [
        0.0, 1.0, 0.0, 0.0]
    assert from_table({}).at([[1, 0, 0]]).tolist() == [0.0]


def test_table_keys_beyond_the_code_box_rejected():
    # the uneven table read as even when 2**40 overflowed the int64 codes
    big = potential.TABLE_KEY_MAX + 1
    for key in ((2**40, 0, 0), (0, -big, 0), (10**19, 0, 0)):
        with pytest.raises(ValueError, match="2\\*\\*20 in magnitude"):
            from_table({key: 1.0, tuple(-c for c in key): 2.0,
                        (1, 0, 0): 2.0, (-1, 0, 0): 2.0})


def test_at_matches_evaluate_at_the_largest_keys():
    r = potential.TABLE_KEY_MAX
    keys = [(r, 0, 0), (r, -r, r), (0, r, -1)]
    table = {k: 1.0 + i for i, k in enumerate(keys)}
    table.update({tuple(-c for c in k): -(1.0 + i) for i, k in enumerate(keys)})
    table.update({(1, 0, 0): 2.0, (-1, 0, 0): 2.0})
    pot = from_table(table)
    pts = [*keys, *(tuple(-c for c in k) for k in keys), (r, 0, 1), (-r, r, 0)]
    assert pot.at(pts).tolist() == [evaluate(pot, p) for p in pts]
    assert pot.at(pts).tolist()[:6] == [1.0, 2.0, 3.0, -1.0, -2.0, -3.0]
    report = validate(pot, 4)
    assert not report.ok and not report.symmetric and not report.nonnegative


@pytest.mark.parametrize("make, message", [
    (lambda: coulomb(math.inf), "coupling g must be finite, got inf"),
    (lambda: coulomb(math.nan), "coupling g must be finite, got nan"),
    (lambda: yukawa(math.inf, 1.0), "coupling g must be finite"),
    (lambda: yukawa(1.0, math.nan), "screening mu must be finite"),
    (lambda: from_table({(1, 0, 0): math.inf, (-1, 0, 0): 1.0}),
     r"table value at \(1, 0, 0\) must be finite"),
])
def test_non_finite_parameters_rejected(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_load_table_rejects_non_finite_with_line(tmp_path):
    path = tmp_path / "inf.txt"
    path.write_text("# header\n1 0 0 1.0\n-1 0 0 nan\n")
    with pytest.raises(ValueError, match=f"{path}:3: value must be finite"):
        load_table(path)


def test_table_symmetry_class_is_computed_once(monkeypatch):
    # the evenness scan calls neg once per entry it checks
    scanned = []
    neg = potential.neg
    monkeypatch.setattr(potential, "neg",
                        lambda k: scanned.append(k) or neg(k))
    even = from_table({(1, 0, 0): 1.0, (-1, 0, 0): 1.0, (0, 2, 1): 0.5,
                       (0, -2, -1): 0.5})
    uneven = from_table({(1, 0, 0): 1.0, (-1, 0, 0): 2.0})
    for _ in range(3):
        assert (even.symmetry, even.is_even) == ("even", True)
        assert (uneven.symmetry, uneven.is_even) == ("none", False)
        assert (coulomb(1.0).symmetry, coulomb(1.0).is_even) == ("radial", True)
    # one full scan of the even table, and the uneven one stops at its
    # first entry
    assert len(scanned) == 4 + 1

