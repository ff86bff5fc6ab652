"""Goldens for the oracle's table readers: `random_interior_point` and `statistical_test`.

The values were taken from the per-vertex loop forms these functions had
before they read the vertex table, so they pin the table forms to the last
bit: each point as exact Fractions, and each report field for field with
`==`.  Each report's samples are drawn by `random.Random(7).choices` from
the exact law at `random_interior_point(P, Random(4))`: on circ4 no cell
is pooled at 2,000 samples and 107 of the 152 are at 700, and on circ5
(3,000 samples) every cell is pooled, so the pooled expectation, summed in
vertex order, sets the chi-square statistic alone.
"""

import random
from fractions import Fraction

import pytest

from flowfactory import (
    build_circulation_polytope,
    build_kflow_polytope,
    build_matching_polytope,
    exact_output_distribution,
    random_interior_point,
    statistical_test,
)
from flowfactory.oracle import StatReport

BUILD = {
    "circ4": lambda: build_circulation_polytope(4),
    "match3": lambda: build_matching_polytope(3),
    "kflow5_2": lambda: build_kflow_polytope(5, 2),
    "circ5": lambda: build_circulation_polytope(5),
}

POINTS = {
    ('circ4', 0): "981/1943 974/1943 1793/3886 962/1943 2035/3886 974/1943 918/1943 1927/3886 1045/1943 1/2 1009/1943 935/1943",
    ('circ4', 3): "233/485 1877/3880 246/485 1951/3880 1009/1940 1793/3880 236/485 234/485 1913/3880 187/388 1013/1940 889/1940",
    ('match3', 0): "25/77 15/77 37/77 26/77 29/77 2/7 26/77 3/7 18/77",
    ('match3', 3): "9/23 44/161 54/161 47/161 55/161 59/161 51/161 62/161 48/161",
    ('kflow5_2', 0): "267/371 187/371 79/371 209/371 122/371 47/371 14/53 124/371 185/371 250/371",
    ('kflow5_2', 3): "19/26 85/182 17/91 8/13 47/182 5/26 51/182 47/182 85/182 58/91",
    ('circ5', 0): "24145/48299 24253/48299 97215/193196 97345/193196 24293/48299 96469/193196 24327/48299 48331/96598 24224/48299 48357/96598 48133/96598 48483/96598 96729/193196 97225/193196 96339/193196 97021/193196 97355/193196 24273/48299 48511/96598 96525/193196",
    ('circ5', 3): "95455/191849 96255/191849 94900/191849 95643/191849 95763/191849 13465/27407 95976/191849 95901/191849 96286/191849 96729/191849 95245/191849 94944/191849 94810/191849 13456/27407 96898/191849 96237/191849 95394/191849 95519/191849 95796/191849 96016/191849",
}
REPORTS = {
    ('circ4', 2000): StatReport(
        chi_square=178.29950187943928, chi_pvalue=0.06388587711328843, chi_pass=True,
        marginal_band=0.050214064537064916, passed=True, marginals=[
            (0, 0.498, 0.511641113003975, True),
            (1, 0.525, 0.5139125496876774, True),
            (2, 0.4545, 0.47643384440658715, True),
            (3, 0.471, 0.4960249858035207, True),
            (4, 0.463, 0.46365701306076096, True),
            (5, 0.5245, 0.5201590005678591, True),
            (6, 0.521, 0.5161839863713799, True),
            (7, 0.4755, 0.4741624077228847, True),
            (8, 0.468, 0.4778534923339012, True),
            (9, 0.4855, 0.489778534923339, True),
            (10, 0.485, 0.4940374787052811, True),
            (11, 0.4765, 0.4906303236797274, True),
        ]),
    ('circ4', 700): StatReport(
        chi_square=36.2037196874957, chi_pvalue=0.822270737690343, chi_pass=True,
        marginal_band=0.08487726058142547, passed=True, marginals=[
            (0, 0.4828571428571429, 0.511641113003975, True),
            (1, 0.5242857142857142, 0.5139125496876774, True),
            (2, 0.46714285714285714, 0.47643384440658715, True),
            (3, 0.44857142857142857, 0.4960249858035207, True),
            (4, 0.4642857142857143, 0.46365701306076096, True),
            (5, 0.5057142857142857, 0.5201590005678591, True),
            (6, 0.5371428571428571, 0.5161839863713799, True),
            (7, 0.4514285714285714, 0.4741624077228847, True),
            (8, 0.4757142857142857, 0.4778534923339012, True),
            (9, 0.48857142857142855, 0.489778534923339, True),
            (10, 0.48428571428571426, 0.4940374787052811, True),
            (11, 0.4757142857142857, 0.4906303236797274, True),
        ]),
    ('circ5', 3000): StatReport(
        chi_square=5.404246668679758e-26, chi_pvalue=0.9999999999998145, chi_pass=True,
        marginal_band=0.042025061437781924, passed=True, marginals=[
            (0, 0.48, 0.49798283084669515, True),
            (1, 0.5076666666666667, 0.5039930663034731, True),
            (2, 0.494, 0.5065003404940259, True),
            (3, 0.505, 0.503559710270538, True),
            (4, 0.496, 0.5002063600156834, True),
            (5, 0.502, 0.4988134299098207, True),
            (6, 0.48833333333333334, 0.4982923708702202, True),
            (7, 0.492, 0.5036577312779876, True),
            (8, 0.5073333333333333, 0.5010163230772405, True),
            (9, 0.49466666666666664, 0.503497802265833, True),
            (10, 0.5036666666666667, 0.5020997131595782, True),
            (11, 0.5056666666666667, 0.5009131430693988, True),
            (12, 0.486, 0.5063971604861842, True),
            (13, 0.484, 0.5025330691925133, True),
            (14, 0.5153333333333333, 0.5033843042572071, True),
            (15, 0.5066666666666667, 0.500433356032935, True),
            (16, 0.49733333333333335, 0.5044161043356239, True),
            (17, 0.5196666666666667, 0.4969561897686704, True),
            (18, 0.48633333333333334, 0.5013361811015498, True),
            (19, 0.506, 0.5058554654450154, True),
        ]),
}


@pytest.mark.parametrize("name, seed", list(POINTS), ids=[f"{name}-{seed}" for name, seed in POINTS])
def test_random_interior_point_golden(name, seed):
    point = random_interior_point(BUILD[name](), random.Random(seed))
    assert point == tuple(map(Fraction, POINTS[name, seed].split()))


@pytest.mark.parametrize("name, n, pooled", [("circ4", 2000, 0), ("circ4", 700, 107), ("circ5", 3000, 7736)])
def test_statistical_test_report_golden(name, n, pooled):
    P = BUILD[name]()
    x = random_interior_point(P, random.Random(4))
    probabilities = exact_output_distribution(P, x).probabilities
    assert sum(float(p) * n < 5 for p in probabilities.values()) == pooled
    samples = random.Random(7).choices(list(probabilities), weights=[float(p) for p in probabilities.values()], k=n)
    assert statistical_test(P, x, None, samples) == REPORTS[name, n]
