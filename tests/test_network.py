import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridshock.network import (
    NetworkParseError,
    NetworkValidationError,
    apply_heatwave,
    load_demand,
    load_network,
    save_demand,
    save_network,
)
from support import (entity_gen_map, entity_incidence, entity_limits, one_bus, profile_for,
                     triangle, two_bus)

MINIMAL = {
    "name": "mini",
    "reference_node": "n1",
    "total_customers": 1000,
    "nodes": [
        {"id": "n1", "name": "first", "customer_share": 0.5},
        {"id": "n2", "name": "second", "customer_share": 0.5},
    ],
    "edges": [
        {"id": "e1", "from": "n1", "to": "n2", "susceptance": 10.0,
         "flow_limit_mw": 100.0, "angle_limit_rad": 0.5},
    ],
    "generators": [
        {"id": "g1", "node": "n1", "technology": "gas", "min_mw": 0.0,
         "max_mw": 150.0, "cost_per_mwh": 20.0},
    ],
}


def write_net(tmp_path, doc, name="net.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_load_minimal_network(tmp_path):
    net = load_network(write_net(tmp_path, MINIMAL))
    assert net.num_nodes == 2 and net.num_edges == 1 and net.num_generators == 1
    assert net.reference_node == "n1"


def test_broken_endpoint_names_entity(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["edges"][0]["to"] = "n3"
    with pytest.raises(NetworkValidationError, match="n3"):
        load_network(write_net(tmp_path, doc))


def test_unknown_key_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["edges"][0]["resistance"] = 0.01
    with pytest.raises(NetworkParseError, match="resistance"):
        load_network(write_net(tmp_path, doc))


def test_missing_reference_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["reference_node"] = "zz"
    with pytest.raises(NetworkValidationError, match="zz"):
        load_network(write_net(tmp_path, doc))


def test_nonpositive_susceptance_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["edges"][0]["susceptance"] = 0.0
    with pytest.raises(NetworkValidationError, match="e1"):
        load_network(write_net(tmp_path, doc))


def test_disconnected_graph_rejected(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["nodes"].append({"id": "n3", "name": "isle", "customer_share": 0.0})
    with pytest.raises(NetworkValidationError, match="disconnected"):
        load_network(write_net(tmp_path, doc))


def test_customer_shares_must_sum_to_one(tmp_path):
    doc = json.loads(json.dumps(MINIMAL))
    doc["nodes"][0]["customer_share"] = 0.9
    with pytest.raises(NetworkValidationError, match="customer shares"):
        load_network(write_net(tmp_path, doc))


def test_malformed_json_is_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(NetworkParseError):
        load_network(path)


def test_bundled_network_shape(bundled_net):
    assert bundled_net.num_nodes == 16
    assert bundled_net.num_edges == 17
    assert len({g.technology for g in bundled_net.generators}) == 9


def test_network_roundtrip(tmp_path, bundled_net):
    path = tmp_path / "round.json"
    save_network(bundled_net, path)
    again = load_network(path)
    assert again == bundled_net


def test_incidence_single_edge():
    net = two_bus()
    np.testing.assert_array_equal(net.arrays.incidence, [[1.0, -1.0]])
    np.testing.assert_array_equal(net.arrays.gen_node_map, [[1.0, 0.0], [0.0, 1.0]])


def test_incidence_triangle():
    arr = triangle().arrays
    np.testing.assert_array_equal(
        arr.incidence, [[1.0, -1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 1.0, -1.0]])
    np.testing.assert_array_equal(arr.gen_node_map, np.eye(3))
    assert arr.node_edges == ((0, 1), (0, 2), (1, 2))


def test_incidence_bundled_rows(bundled_net):
    A = bundled_net.arrays.incidence
    assert A.shape == (17, 16)
    np.testing.assert_allclose(A.sum(axis=1), 0.0)
    assert np.all((A == 1.0).sum(axis=1) == 1)
    assert np.all((A == -1.0).sum(axis=1) == 1)


def test_heatwave_scales_everything():
    net = two_bus()
    prof = profile_for(net, [[100.0, 100.0]])
    hot = apply_heatwave(prof, 1.09)
    np.testing.assert_allclose(hot.demand["summer"], 109.0)
    np.testing.assert_allclose(hot.voll["summer"], prof.voll["summer"])


def test_heatwave_identity_and_doubling():
    net = two_bus()
    prof = profile_for(net, [[50.0, 50.0]])
    np.testing.assert_array_equal(apply_heatwave(prof, 1.0).demand["summer"],
                                  prof.demand["summer"])
    np.testing.assert_allclose(apply_heatwave(prof, 2.0).demand["summer"], 100.0)


def test_heatwave_rejects_nonpositive():
    net = one_bus()
    prof = profile_for(net, [[10.0]])
    with pytest.raises(ValueError):
        apply_heatwave(prof, 0.0)


@settings(max_examples=25, deadline=None)
@given(a=st.floats(0.2, 3.0), b=st.floats(0.2, 3.0))
def test_heatwave_composes_multiplicatively(a, b):
    net = one_bus()
    prof = profile_for(net, [[123.0]])
    once = apply_heatwave(prof, a * b).demand["summer"]
    twice = apply_heatwave(apply_heatwave(prof, a), b).demand["summer"]
    np.testing.assert_allclose(once, twice, rtol=1e-12)


def test_demand_roundtrip(tmp_path, bundled_net, bundled_demand):
    path = tmp_path / "demand.csv"
    save_demand(bundled_demand, path)
    again = load_demand(path, bundled_net)
    np.testing.assert_array_equal(again.demand["summer"],
                                  bundled_demand.demand["summer"])
    np.testing.assert_array_equal(again.voll["summer"],
                                  bundled_demand.voll["summer"])


def test_demand_missing_node_rejected(tmp_path, bundled_net):
    path = tmp_path / "d.csv"
    path.write_text("season,hour,node,demand_mw,voll\nsummer,0,Z01,10.0,2600\n")
    with pytest.raises(NetworkParseError, match="missing node"):
        load_demand(path, bundled_net)


def test_demand_voll_must_dominate(tmp_path):
    net = one_bus(cost=20.0)
    path = tmp_path / "d.csv"
    path.write_text("season,hour,node,demand_mw,voll\nsummer,0,n1,10.0,15.0\n")
    with pytest.raises(NetworkValidationError, match="VOLL"):
        load_demand(path, net)


def test_profiles_are_immutable(bundled_demand):
    with pytest.raises(ValueError):
        bundled_demand.demand["summer"][0, 0] = 999.0


def test_network_arrays_are_built_once_and_read_only(bundled_net):
    """Every array of NetworkArrays against the entity lists, read-only."""
    for net in (one_bus(), two_bus(), triangle(), bundled_net):
        arr = net.arrays
        assert net.arrays is arr
        want = entity_limits(net)
        for got, ref in ((arr.incidence, entity_incidence(net)),
                         (arr.gen_node_map, entity_gen_map(net)),
                         (arr.susceptance_mw, want["susceptance_mw"]),
                         (arr.gen_costs, want["costs"]), (arr.g_lo, want["g_lo"]),
                         (arr.g_up, want["g_up"]), (arr.g_span, want["g_span"]),
                         (arr.f_cap, want["f_cap"]), (arr.t_cap, want["t_cap"]),
                         (arr.shares, want["shares"])):
            assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape,
                                                             ref.tobytes())
            assert not got.flags.writeable
        assert arr.e_ref[arr.ref] == 1.0 and arr.e_ref.sum() == 1.0
        assert not arr.e_ref.flags.writeable
        assert net.nodes[arr.ref].id == net.reference_node
        # the per-node index: generators and incident edges in entity order
        for n, node in enumerate(net.nodes):
            gens = tuple(k for k, g in enumerate(net.generators) if g.node == node.id)
            assert arr.node_gens[n] == gens
            assert arr.node_edges[n] == tuple(e for e, edge in enumerate(net.edges)
                                              if node.id in (edge.from_node, edge.to_node))
            assert arr.node_floor[n] == sum(net.generators[k].g_min for k in gens)


def test_killable_span_and_shares_by_hand():
    net = two_bus(g1=150.0, g2=100.0)
    gens = (net.generators[0], replace(net.generators[1], g_min=40.0))
    arr = replace(net, generators=gens).arrays
    np.testing.assert_array_equal(arr.g_span, [150.0, 60.0])
    np.testing.assert_array_equal(arr.shares, [0.5, 0.5])
    np.testing.assert_array_equal(arr.susceptance_mw, [800.0])
    assert arr.node_floor == (0.0, 40.0)
