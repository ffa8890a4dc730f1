"""The plankton-only regime: where the point exists, what the lemma says
there, and which sets the certificate takes.

The point exists iff d1 < e1*c1*K (case 2 or 3), the lemma applies only
there, and ``choose_rates`` takes exactly the sets the lemma calls stable
that have e2*c2 > 0 and both delays positive.
"""

import math
import re

import numpy as np
import pytest

from planktonfish import (CertificateError, DomainError, choose_rates,
                          classify_equilibria, derive_params, lemma_classify)
from planktonfish.model import coexistence_threshold

from conftest import random_stable_params, random_unstable_params
from test_model import _random_params

README = dict(r=1.0, K=1.0, c1=1.0, c2=1.0, d1=1.5, d2=1.0,
              b1=3.0, b2=1.0, tau1=0.1, tau2=0.1)
U = 3.0 * math.exp(-0.1)  # e1*c1*K of the README rates, bit for bit
# with d2 = 0.3 the coexistence threshold t = 1.8145... lies above U/3
T = coexistence_threshold(derive_params(**dict(README, d2=0.3)))


def _below(x):
    return math.nextafter(x, -math.inf)


def _above(x):
    return math.nextafter(x, math.inf)


STABLE = "AsymptoticallyStable"
NO_POINT = "plankton-only point requires d1 < e1*c1*K ("
NOT_STABLE = "certificate inapplicable: verdict "

# (rates, case id, lemma kind or None for DomainError, choose_rates's
# error prefix or None for success)
ROWS = {
    "d1=u": (dict(d1=U), 1, None, NO_POINT),
    "d1=u-ulp": (dict(d1=_below(U)), 2, STABLE, None),
    "d1=t": (dict(d1=T, d2=0.3), 2, "DelayDependent",
             NOT_STABLE + "DelayDependent (d1 = "),
    "d1=t-ulp": (dict(d1=_below(T), d2=0.3), 3, "Unstable",
                 NOT_STABLE + "Unstable (d1 = "),
    # e1*c1*K*(1/3) rounds one ulp below the float U/3
    "d1=u/3-ulp": (dict(d1=_below(U / 3)), 2, "DelayDependent",
                   NOT_STABLE + "DelayDependent (d1 = "),
    "d1=u/3": (dict(d1=U / 3), 2, STABLE, None),
    "d1=u/3+ulp": (dict(d1=_above(U / 3)), 2, STABLE, None),
    "c2=0": (dict(c2=0.0), 2, STABLE, "certificate inapplicable: e2*c2 = 0"),
    "b2=0": (dict(b2=0.0), 2, STABLE, "certificate inapplicable: e2*c2 = 0"),
    # a few ulps inside the lemma's stable side, m1's and m2's ranges
    # round to empty
    "m1<=0": (dict(r=0.6774804488449017, K=0.751617173219628,
                   c1=1.7893997123825116, c2=1.8924479033638395,
                   d1=0.7555486801630027, d2=1.8040376798287532,
                   b1=3.934737262127411, b2=4.183031180416922,
                   tau1=0.4738432252938232, tau2=0.46617427352034024),
              2, STABLE, "certificate inapplicable: rate m1 = "),
    "m2<=0": (dict(r=2.0797053972640698, K=0.6364872590945899,
                   c1=1.236882561574464, c2=0.6663022042434991,
                   d1=1.0235380499244613, d2=1.978216879525056,
                   b1=3.795612732164835, b2=4.398447582077607,
                   tau1=0.3334196411128087, tau2=0.27638486150419755),
              2, STABLE, "certificate inapplicable: rate m2 = "),
}


@pytest.mark.parametrize("row", list(ROWS))
def test_regime_table(row):
    rates, case_id, kind, failure = ROWS[row]
    p = derive_params(**dict(README, **rates))
    assert classify_equilibria(p).case_id == case_id
    if kind is None:
        with pytest.raises(DomainError, match=r"^" + re.escape(NO_POINT)):
            lemma_classify(p)
    else:
        assert lemma_classify(p).kind == kind
    if failure is None:
        m1, m2 = choose_rates(p)
        assert m1 > 0.0 and m2 > 0.0
        return
    error = DomainError if failure == NO_POINT else CertificateError
    with pytest.raises(error) as raised:
        choose_rates(p)
    assert type(raised.value) is error
    assert str(raised.value).startswith(failure)


def _regime_sets(count=200):
    rng = np.random.default_rng(26)
    draws = (random_stable_params, random_unstable_params, _random_params)
    return [draws[i % 3](rng) for i in range(count)]


def test_regime_rules_agree():
    seen = set()
    for p in _regime_sets():
        case_id = classify_equilibria(p).case_id
        try:
            kind = lemma_classify(p).kind
        except DomainError:
            kind = None
        assert (kind is None) == (case_id == 1)
        assert (kind == "Unstable") == (case_id == 3)
        try:
            m1, m2 = choose_rates(p)
        except (CertificateError, DomainError):
            certified = False
        else:
            assert m1 > 0.0 and m2 > 0.0
            certified = True
        assert certified == (kind == STABLE and p.e2 * p.c2 > 0.0
                             and p.tau1 > 0.0 and p.tau2 > 0.0)
        seen.add((case_id, kind, certified))
    # every branch of the regime is drawn
    assert {(1, None, False), (2, STABLE, True), (3, "Unstable", False),
            (2, "DelayDependent", False)} <= seen
