"""Properties of every claim `grid --format json` prints, over random inputs.

Shapes have dimensions up to 10^6 and P is at most 10^4. Half the cases are
drawn at random; the other half are blocked shapes (p1 b, p2 b, p3 b) at
P = p1 p2 p3, whose analytic grid is integral, so the implication about
integral grids is exercised and not vacuous.  The converse is the paper's
tightness statement: a grid attains the bound only where the analytic grid is
integral, because the minimizer is unique in log space and every grid is a
feasible point.
"""

import contextlib
import io
import json
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import commbounds.cli as cli
from commbounds.exact import json_to_value

dims = st.integers(1, 10**6)
random_cases = st.tuples(st.tuples(dims, dims, dims), st.integers(1, 10**4))
factors = st.integers(1, 21)
blocked_cases = st.builds(
    lambda p1, p2, p3, b: ((p1 * b, p2 * b, p3 * b), p1 * p2 * p3),
    factors, factors, factors, st.integers(1, 10**4),
)


def grid_json(shape, procs) -> dict:
    argv = ["grid", "--shape", *map(str, shape), "--procs", str(procs)]
    argv += ["--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


@settings(deadline=None, max_examples=150)
@given(st.one_of(random_cases, blocked_cases))
def test_grid_claims(case):
    doc = grid_json(*case)
    cost = json_to_value(doc["exhaustive"]["cost"])
    bound = json_to_value(doc["lower_bound"])
    exact_bound = isinstance(doc["lower_bound"], dict)
    assert isinstance(cost, Fraction)
    if exact_bound:
        assert cost >= bound
    else:
        assert float(cost) >= bound - 1e-12 * max(1.0, abs(bound))
    assert doc["attained"] == (exact_bound and cost == bound)
    if doc["analytic"]["integral"]:
        assert doc["agreement"] and doc["attained"]
    if doc["attained"]:
        assert doc["analytic"]["integral"] and doc["agreement"]
