"""Every route to each quantity agrees with every other, on every tier-1 group where both run.

The routes, their domains and the groups are catalogued in ``routes.py``.  One case runs
one group through every quantity, so its routes share the oracle's and the series' caches;
a failure names the quantity, the input and the routes that ran there.
"""

import pytest
from routes import GROUPS, QUANTITIES, connected_edge_series, disagreements, factorial


def _compared(quantity, params):
    """(inputs, routes) of ``quantity`` at ``params`` where at least two routes run."""
    routes = quantity.routes
    cases = [(args, [r for r in routes if r.runs(*args)]) for args in quantity.inputs(params)]
    return [(args, routes) for args, routes in cases if len(routes) > 1]


@pytest.mark.parametrize("params", GROUPS, ids=str)
def test_every_route_agrees_with_every_other(params):
    for quantity in QUANTITIES:
        for args, routes in _compared(quantity, params):
            values = [(route.name, route.compute(*args)) for route in routes]
            names = [route.name for route in routes]
            assert disagreements(values) == [], (quantity.name, args, names)


@pytest.mark.parametrize("quantity", QUANTITIES, ids=lambda q: q.name)
def test_every_route_meets_another_on_a_tier1_group(quantity):
    met = {
        route.name
        for params in GROUPS
        for _, routes in _compared(quantity, params)
        for route in routes
    }
    assert met == {route.name for route in quantity.routes}


def test_connected_edge_series_counts_spanning_trees():
    # Cayley: no sequence of fewer than n-1 edges connects n vertices, and
    # the n^(n-2) spanning trees come in (n-1)! edge orders each.
    for n in range(2, 7):
        prefix = connected_edge_series(n).egf_prefix(n - 1)
        assert prefix == [0] * (n - 1) + [n ** (n - 2) * factorial(n - 1)]
