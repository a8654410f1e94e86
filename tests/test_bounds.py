import math

import pytest

from idcodes import (
    BoundReport,
    alpha0,
    bipartite_subgraph_bound,
    bound_names,
    chernoff_constant,
    edge_deletion_sensitivity_bound,
    evaluate,
    gnp_idcode_prediction,
    idcode_lower_bound,
    sparse_edge_threshold,
)
from idcodes.bounds import ceil_log2


def test_ceil_log2():
    assert [ceil_log2(m) for m in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_idcode_lower_bound():
    assert idcode_lower_bound(1) == 1
    assert idcode_lower_bound(3) == 2
    assert idcode_lower_bound(7) == 3
    assert idcode_lower_bound(8) == 4
    assert idcode_lower_bound(512) == 10
    with pytest.raises(ValueError):
        idcode_lower_bound(0)


def test_chernoff_constant_windows():
    c1 = chernoff_constant(1.0)
    assert 1 / 3 < c1 < 0.3864
    assert abs(c1 - (2 * math.log(2) - 1)) < 1e-12
    ch = chernoff_constant(0.5)
    assert 0.1 < ch < 0.1083
    assert abs(ch - 0.125) > 1e-3, "the epsilon^2/2 branch must win at 1/2"
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            chernoff_constant(bad)


def test_chernoff_constant_is_min_of_branches():
    for eps in (0.1, 0.3, 0.5, 1.0, 2.0, 5.0):
        kl = (1 + eps) * math.log1p(eps) - eps
        sq = eps * eps / 2
        assert chernoff_constant(eps) == pytest.approx(min(kl, sq), abs=1e-12)


def test_alpha0_values():
    assert alpha0(0.0) == pytest.approx(0.5, abs=1e-9)
    assert alpha0(1.0) == pytest.approx(0.171, abs=1e-3)
    assert alpha0(2.0) == pytest.approx(0.13227, abs=1e-3)
    for bad in (-0.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            alpha0(bad)


def test_alpha0_root_property_and_monotonicity():
    prev = None
    for mp in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0):
        a = alpha0(mp)
        assert 0 < a <= 0.5
        residual = a * (math.log(mp + a) + 1 - math.log(a)) - 0.5
        assert abs(residual) < 1e-9, (mp, residual)
        if prev is not None:
            assert a < prev, "threshold shrinks as the pair count grows"
        prev = a


def test_sparse_edge_threshold():
    for mp in (0.0, 1.0, 3.0):
        assert sparse_edge_threshold(mp) == pytest.approx(alpha0(mp) / 4)


def test_gnp_idcode_prediction():
    assert gnp_idcode_prediction(1000, 0.5) == pytest.approx(19.93, abs=0.01)
    assert gnp_idcode_prediction(100, 0.5) == pytest.approx(
        2 * math.log(100) / math.log(2), abs=1e-9
    )
    # q = p^2 + (1-p)^2 is symmetric in p <-> 1-p
    assert gnp_idcode_prediction(500, 0.3) == pytest.approx(
        gnp_idcode_prediction(500, 0.7)
    )
    with pytest.raises(ValueError):
        gnp_idcode_prediction(10, 0.0)
    with pytest.raises(ValueError):
        gnp_idcode_prediction(10, 1.0)
    with pytest.raises(ValueError):
        gnp_idcode_prediction(1, 0.5)


def test_bipartite_subgraph_bound():
    assert bipartite_subgraph_bound(1) == 2
    assert bipartite_subgraph_bound(2) == 12
    assert bipartite_subgraph_bound(3) == 56
    with pytest.raises(ValueError):
        bipartite_subgraph_bound(0)
    with pytest.raises(OverflowError):
        bipartite_subgraph_bound(20_000)


def test_edge_deletion_sensitivity_bound():
    assert edge_deletion_sensitivity_bound() == 2


def test_evaluate_dispatch():
    names = bound_names()
    assert "chernoff_constant" in names and "alpha0" in names
    rep = evaluate("gnp_idcode_prediction", n=1000, p=0.5)
    assert isinstance(rep, BoundReport)
    assert rep.name == "gnp_idcode_prediction"
    assert rep.value == pytest.approx(19.93, abs=0.01)
    assert rep.inputs == {"n": 1000, "p": 0.5}
    assert evaluate("idcode_lower_bound", n=7).value == 3
    assert evaluate("edge_deletion_sensitivity_bound").value == 2


def test_evaluate_rejects_bad_params():
    with pytest.raises(ValueError):
        evaluate("no_such_bound")
    with pytest.raises(ValueError):
        evaluate("alpha0")
    with pytest.raises(ValueError):
        evaluate("alpha0", mp=1.0, n=5)
