"""Shared instance builders for the test suite."""

from __future__ import annotations

import numpy as np

from gridshock.network import (
    BASE_MVA,
    DemandProfile,
    Edge,
    Generator,
    Node,
    PowerNetwork,
    validate_network,
)


# -- a network's numbers straight from its entity lists, independent of
# NetworkArrays: reference copies and tests compare the package against these

def entity_array(items, field: str) -> np.ndarray:
    """One field of every entity in ``items``, in order."""
    return np.array([getattr(x, field) for x in items])


def entity_limits(net: PowerNetwork) -> dict[str, np.ndarray]:
    """The generator, flow and angle limits and costs of ``net`` by name:
    g_lo, g_up, g_span (what an attack may kill), f_cap, t_cap, costs,
    susceptance_mw and shares."""
    g_lo = entity_array(net.generators, "g_min")
    g_up = entity_array(net.generators, "g_max")
    return {"g_lo": g_lo, "g_up": g_up, "g_span": g_up - g_lo,
            "f_cap": entity_array(net.edges, "flow_limit"),
            "t_cap": entity_array(net.edges, "angle_limit"),
            "costs": entity_array(net.generators, "cost"),
            "susceptance_mw": BASE_MVA * entity_array(net.edges, "susceptance"),
            "shares": entity_array(net.nodes, "customer_share")}


def entity_incidence(net: PowerNetwork) -> np.ndarray:
    """E x N: +1 at each edge's from node, -1 at its to node."""
    ids = [nd.id for nd in net.nodes]
    A = np.zeros((net.num_edges, net.num_nodes))
    for e, edge in enumerate(net.edges):
        A[e, ids.index(edge.from_node)] = 1.0
        A[e, ids.index(edge.to_node)] = -1.0
    return A


def entity_gen_map(net: PowerNetwork) -> np.ndarray:
    """N x G: one at each generator's node."""
    ids = [nd.id for nd in net.nodes]
    M = np.zeros((net.num_nodes, net.num_generators))
    for k, gen in enumerate(net.generators):
        M[ids.index(gen.node), k] = 1.0
    return M


def profile_for(net: PowerNetwork, rows, voll=1000.0, season="summer") -> DemandProfile:
    d = np.array(rows, dtype=float)
    if d.ndim == 1:
        d = d[None, :]
    H, N = d.shape
    v = np.full((H, N), float(voll))
    return DemandProfile(tuple(n.id for n in net.nodes), {season: d}, {season: v})


def one_bus(g_max=150.0, cost=20.0) -> PowerNetwork:
    return validate_network(PowerNetwork(
        "one",
        (Node("n1", "n1", 1.0),),
        (),
        (Generator("g1", "n1", "gas", 0.0, g_max, cost),),
        "n1", 1_000_000,
    ))


def two_bus(g1=150.0, c1=20.0, g2=100.0, c2=90.0, fbar=50.0, with_g2=True) -> PowerNetwork:
    gens = [Generator("g1", "n1", "cheap", 0.0, g1, c1)]
    if with_g2:
        gens.append(Generator("g2", "n2", "dear", 0.0, g2, c2))
    return validate_network(PowerNetwork(
        "twobus",
        (Node("n1", "n1", 0.5), Node("n2", "n2", 0.5)),
        (Edge("e1", "n1", "n2", 8.0, fbar, 1.0),),
        tuple(gens),
        "n1", 1_000_000,
    ))


def tight_two_bus() -> PowerNetwork:
    """Both capacity limits bind at the baseline optimum; any capacity kill sheds."""
    return validate_network(PowerNetwork(
        "twobus-tight",
        (Node("n1", "n1", 0.5), Node("n2", "n2", 0.5)),
        (Edge("e1", "n1", "n2", 8.0, 50.0, 1.0),),
        (Generator("g1", "n1", "cheap", 0.0, 60.0, 20.0),
         Generator("g2", "n2", "dear", 0.0, 30.0, 90.0)),
        "n1", 1_000_000,
    ))


def triangle() -> PowerNetwork:
    return validate_network(PowerNetwork(
        "tri",
        (Node("n1", "n1", 0.4), Node("n2", "n2", 0.3), Node("n3", "n3", 0.3)),
        (Edge("e12", "n1", "n2", 10.0, 100.0, 1.0),
         Edge("e13", "n1", "n3", 6.0, 60.0, 1.0),
         Edge("e23", "n2", "n3", 6.0, 60.0, 1.0)),
        (Generator("g1", "n1", "cheap", 0.0, 300.0, 10.0),
         Generator("g2", "n2", "mid", 0.0, 120.0, 30.0),
         Generator("g3", "n3", "dear", 0.0, 80.0, 90.0)),
        "n1", 1_000_000,
    ))
