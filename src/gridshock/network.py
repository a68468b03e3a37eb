"""Power network and demand data: types, validation, file ingestion.

The network file is strict JSON with top-level keys ``nodes``, ``edges``,
``generators``, ``reference_node``, ``total_customers`` (and an optional
``name``); unknown keys are rejected.  Flow and angle limits are symmetric
(lower = -upper), so files carry only the upper magnitude.  Susceptances
are per-unit on a 100 MVA base; the flow law folds the base power in.

The demand file is CSV with columns ``season,hour,node,demand_mw,voll``.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

BASE_MVA = 100.0


class NetworkParseError(ValueError):
    """Malformed network or demand file."""


class NetworkValidationError(ValueError):
    """Structurally invalid network data; the message names the offending entity."""


@dataclass(frozen=True)
class Node:
    id: str
    name: str
    customer_share: float


@dataclass(frozen=True)
class Edge:
    id: str
    from_node: str
    to_node: str
    susceptance: float  # per-unit
    flow_limit: float   # MW, bounds are [-flow_limit, +flow_limit]
    angle_limit: float  # rad, bounds are [-angle_limit, +angle_limit]


@dataclass(frozen=True)
class Generator:
    id: str
    node: str
    technology: str
    g_min: float  # MW
    g_max: float  # MW
    cost: float   # $/MWh marginal cost


@dataclass(frozen=True)
class NetworkArrays:
    """A network's arrays and per-node index, built once (``PowerNetwork.arrays``).

    Every array is read-only: the network is frozen, so they never go stale.
    """

    incidence: np.ndarray       # E x N: +1 at the edge's start node, -1 at its end node
    gen_node_map: np.ndarray    # N x G: one at each generator's node
    susceptance_mw: np.ndarray  # E, MW/rad: susceptance with the MVA base folded in
    gen_costs: np.ndarray       # G, $/MWh
    g_lo: np.ndarray            # G, must-run floors
    g_up: np.ndarray            # G
    g_span: np.ndarray          # G, g_up - g_lo: the part an attack may kill
    f_cap: np.ndarray           # E
    t_cap: np.ndarray           # E
    shares: np.ndarray          # N, customer shares
    ref: int                    # the reference node's index
    e_ref: np.ndarray           # N, one at the reference node
    node_gens: tuple[tuple[int, ...], ...]   # per node, its generators in order
    node_edges: tuple[tuple[int, ...], ...]  # per node, its incident edges in order
    node_floor: tuple[float, ...]            # per node, the sum of its must-run floors

    @classmethod
    def of(cls, net: "PowerNetwork") -> "NetworkArrays":
        idx = net.node_index()
        gens, edges = net.generators, net.edges
        incidence = np.zeros((net.num_edges, net.num_nodes))
        node_edges: list[list[int]] = [[] for _ in net.nodes]
        for e, edge in enumerate(edges):
            incidence[e, idx[edge.from_node]] = 1.0
            incidence[e, idx[edge.to_node]] = -1.0
            for n in {idx[edge.from_node], idx[edge.to_node]}:
                node_edges[n].append(e)
        gen_node_map = np.zeros((net.num_nodes, net.num_generators))
        node_gens: list[list[int]] = [[] for _ in net.nodes]
        for k, gen in enumerate(gens):
            gen_node_map[idx[gen.node], k] = 1.0
            node_gens[idx[gen.node]].append(k)
        g_lo = np.array([g.g_min for g in gens])
        g_up = np.array([g.g_max for g in gens])
        ref = idx[net.reference_node]
        e_ref = np.zeros(net.num_nodes)
        e_ref[ref] = 1.0
        arrays = cls(
            incidence, gen_node_map, BASE_MVA * np.array([e.susceptance for e in edges]),
            np.array([g.cost for g in gens]), g_lo, g_up, g_up - g_lo,
            np.array([e.flow_limit for e in edges]), np.array([e.angle_limit for e in edges]),
            np.array([nd.customer_share for nd in net.nodes]), ref, e_ref,
            tuple(map(tuple, node_gens)), tuple(map(tuple, node_edges)),
            tuple(sum(g_lo[k] for k in ks) for ks in node_gens),
        )
        for value in vars(arrays).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        return arrays


@dataclass(frozen=True)
class PowerNetwork:
    name: str
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    generators: tuple[Generator, ...]
    reference_node: str
    total_customers: int

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    def node_index(self) -> dict[str, int]:
        return {nd.id: i for i, nd in enumerate(self.nodes)}

    @cached_property
    def arrays(self) -> NetworkArrays:
        """The network's read-only arrays, built on first use."""
        return NetworkArrays.of(self)


def validate_network(net: PowerNetwork) -> PowerNetwork:
    """Check all structural invariants; raises NetworkValidationError."""
    if not net.nodes:
        raise NetworkValidationError("network has no nodes")
    ids = [nd.id for nd in net.nodes]
    if len(set(ids)) != len(ids):
        dup = next(i for i in ids if ids.count(i) > 1)
        raise NetworkValidationError(f"duplicate node id {dup!r}")
    known = set(ids)
    for e in net.edges:
        for endpoint in (e.from_node, e.to_node):
            if endpoint not in known:
                raise NetworkValidationError(
                    f"edge {e.id!r} references undeclared node {endpoint!r}")
        if e.from_node == e.to_node:
            raise NetworkValidationError(f"edge {e.id!r} is a self-loop at {e.from_node!r}")
        if not e.susceptance > 0:
            raise NetworkValidationError(f"edge {e.id!r} has nonpositive susceptance")
        if not e.flow_limit > 0 or not e.angle_limit > 0:
            raise NetworkValidationError(f"edge {e.id!r} has nonpositive flow or angle limit")
    eids = [e.id for e in net.edges]
    if len(set(eids)) != len(eids):
        dup = next(i for i in eids if eids.count(i) > 1)
        raise NetworkValidationError(f"duplicate edge id {dup!r}")
    for g in net.generators:
        if g.node not in known:
            raise NetworkValidationError(
                f"generator {g.id!r} references undeclared node {g.node!r}")
        if not (g.g_max >= g.g_min >= 0):
            raise NetworkValidationError(
                f"generator {g.id!r} violates g_max >= g_min >= 0")
        if g.cost < 0:
            raise NetworkValidationError(f"generator {g.id!r} has negative cost")
    if net.reference_node not in known:
        raise NetworkValidationError(
            f"reference node {net.reference_node!r} is not a declared node")
    # the entity lists, not net.arrays: arrays are built only for a valid network
    shares = np.array([nd.customer_share for nd in net.nodes])
    if np.any(shares < 0) or abs(shares.sum() - 1.0) > 1e-9:
        raise NetworkValidationError("customer shares must be nonnegative and sum to 1")
    if net.total_customers <= 0:
        raise NetworkValidationError("total_customers must be positive")
    # connectivity over the undirected edge set
    if len(net.nodes) > 1:
        adj: dict[str, set[str]] = {i: set() for i in ids}
        for e in net.edges:
            adj[e.from_node].add(e.to_node)
            adj[e.to_node].add(e.from_node)
        seen = {ids[0]}
        frontier = [ids[0]]
        while frontier:
            cur = frontier.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if seen != known:
            missing = sorted(known - seen)[0]
            raise NetworkValidationError(f"graph is disconnected: node {missing!r} unreachable")
    return net


_NODE_KEYS = {"id", "name", "customer_share"}
_EDGE_KEYS = {"id", "from", "to", "susceptance", "flow_limit_mw", "angle_limit_rad"}
_GEN_KEYS = {"id", "node", "technology", "min_mw", "max_mw", "cost_per_mwh"}
_TOP_KEYS = {"name", "nodes", "edges", "generators", "reference_node", "total_customers"}


def _check_keys(obj: dict, allowed: set[str], required: set[str], what: str):
    unknown = set(obj) - allowed
    if unknown:
        raise NetworkParseError(f"{what}: unknown key {sorted(unknown)[0]!r}")
    missing = required - set(obj)
    if missing:
        raise NetworkParseError(f"{what}: missing key {sorted(missing)[0]!r}")


def load_network(path: str | Path) -> PowerNetwork:
    """Load and validate a network file; parse is strict (unknown keys rejected)."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise
    except (OSError, json.JSONDecodeError) as exc:
        raise NetworkParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise NetworkParseError(f"{path}: top level must be an object")
    _check_keys(raw, _TOP_KEYS, _TOP_KEYS - {"name"}, str(path))
    nodes = []
    for obj in raw["nodes"]:
        _check_keys(obj, _NODE_KEYS, {"id", "customer_share"}, f"node {obj.get('id', '?')}")
        nodes.append(Node(str(obj["id"]), str(obj.get("name", obj["id"])),
                          float(obj["customer_share"])))
    edges = []
    for obj in raw["edges"]:
        _check_keys(obj, _EDGE_KEYS, _EDGE_KEYS, f"edge {obj.get('id', '?')}")
        edges.append(Edge(str(obj["id"]), str(obj["from"]), str(obj["to"]),
                          float(obj["susceptance"]), float(obj["flow_limit_mw"]),
                          float(obj["angle_limit_rad"])))
    gens = []
    for obj in raw["generators"]:
        _check_keys(obj, _GEN_KEYS, _GEN_KEYS, f"generator {obj.get('id', '?')}")
        gens.append(Generator(str(obj["id"]), str(obj["node"]), str(obj["technology"]),
                              float(obj["min_mw"]), float(obj["max_mw"]),
                              float(obj["cost_per_mwh"])))
    net = PowerNetwork(
        name=str(raw.get("name", path.stem)),
        nodes=tuple(nodes),
        edges=tuple(edges),
        generators=tuple(gens),
        reference_node=str(raw["reference_node"]),
        total_customers=int(raw["total_customers"]),
    )
    return validate_network(net)


def save_network(net: PowerNetwork, path: str | Path) -> None:
    doc = {
        "name": net.name,
        "reference_node": net.reference_node,
        "total_customers": net.total_customers,
        "nodes": [
            {"id": n.id, "name": n.name, "customer_share": n.customer_share}
            for n in net.nodes
        ],
        "edges": [
            {"id": e.id, "from": e.from_node, "to": e.to_node,
             "susceptance": e.susceptance, "flow_limit_mw": e.flow_limit,
             "angle_limit_rad": e.angle_limit}
            for e in net.edges
        ],
        "generators": [
            {"id": g.id, "node": g.node, "technology": g.technology,
             "min_mw": g.g_min, "max_mw": g.g_max, "cost_per_mwh": g.cost}
            for g in net.generators
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


@dataclass(frozen=True)
class DemandProfile:
    """Per-season hourly nodal demand (MW) and value of lost load ($/MWh).

    Arrays are H x N in the network's node order and read-only.  VOLL must
    exceed every generator marginal cost so shedding is never the cheap
    option.
    """

    node_ids: tuple[str, ...]
    demand: dict[str, np.ndarray]  # season -> (H, N) MW
    voll: dict[str, np.ndarray]    # season -> (H, N) $/MWh

    def __post_init__(self):
        for season, arr in self.demand.items():
            arr.setflags(write=False)
            self.voll[season].setflags(write=False)
            if arr.shape != self.voll[season].shape:
                raise NetworkValidationError(
                    f"season {season!r}: demand and voll shapes differ")
            if arr.shape[1] != len(self.node_ids):
                raise NetworkValidationError(
                    f"season {season!r}: expected {len(self.node_ids)} node columns")
            if np.any(arr < 0):
                raise NetworkValidationError(f"season {season!r}: negative demand")

    @property
    def seasons(self) -> list[str]:
        return sorted(self.demand)

    def hours(self, season: str) -> int:
        return self.demand[season].shape[0]

    def check_voll_dominates(self, net: PowerNetwork) -> None:
        if not net.generators:
            return
        max_cost = max(g.cost for g in net.generators)
        for season, v in self.voll.items():
            if not np.all(v > max_cost):
                raise NetworkValidationError(
                    f"season {season!r}: VOLL must exceed every generator cost "
                    f"(max cost {max_cost})")


def apply_heatwave(profile: DemandProfile, factor: float) -> DemandProfile:
    """Scale every demand entry by ``factor`` (VOLL unchanged); 0 < factor < inf."""
    if not 0 < factor < np.inf:
        raise ValueError(f"heatwave_factor must be finite and positive, got {factor}")
    return DemandProfile(
        node_ids=profile.node_ids,
        demand={s: np.array(a) * factor for s, a in profile.demand.items()},
        voll={s: np.array(a) for s, a in profile.voll.items()},
    )


def load_demand(path: str | Path, net: PowerNetwork) -> DemandProfile:
    """Read the demand CSV; every (season, hour) must cover every node once."""
    path = Path(path)
    idx = net.node_index()
    cells: dict[str, dict[int, dict[str, tuple[float, float]]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        expected = ["season", "hour", "node", "demand_mw", "voll"]
        if reader.fieldnames != expected:
            raise NetworkParseError(
                f"{path}: expected columns {expected}, got {reader.fieldnames}")
        for ln, row in enumerate(reader, start=2):
            try:
                season = row["season"]
                hour = int(row["hour"])
                node = row["node"]
                dem = float(row["demand_mw"])
                voll = float(row["voll"])
            except (TypeError, ValueError) as exc:
                raise NetworkParseError(f"{path}:{ln}: {exc}") from exc
            if node not in idx:
                raise NetworkParseError(f"{path}:{ln}: unknown node {node!r}")
            slot = cells.setdefault(season, {}).setdefault(hour, {})
            if node in slot:
                raise NetworkParseError(
                    f"{path}:{ln}: duplicate entry for {season}/{hour}/{node}")
            slot[node] = (dem, voll)
    if not cells:
        raise NetworkParseError(f"{path}: no demand rows")
    demand: dict[str, np.ndarray] = {}
    volls: dict[str, np.ndarray] = {}
    for season, hours_map in cells.items():
        hours = sorted(hours_map)
        if hours != list(range(len(hours))):
            raise NetworkParseError(
                f"{path}: season {season!r} hours must be 0..H-1, got {hours}")
        H = len(hours)
        d = np.zeros((H, net.num_nodes))
        v = np.zeros((H, net.num_nodes))
        for h in hours:
            slot = hours_map[h]
            for nd in net.nodes:
                if nd.id not in slot:
                    raise NetworkParseError(
                        f"{path}: season {season!r} hour {h} missing node {nd.id!r}")
                d[h, idx[nd.id]], v[h, idx[nd.id]] = slot[nd.id]
        demand[season] = d
        volls[season] = v
    profile = DemandProfile(tuple(n.id for n in net.nodes), demand, volls)
    profile.check_voll_dominates(net)
    return profile


def save_demand(profile: DemandProfile, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["season", "hour", "node", "demand_mw", "voll"])
        for season in profile.seasons:
            d = profile.demand[season]
            v = profile.voll[season]
            for h in range(d.shape[0]):
                for j, node in enumerate(profile.node_ids):
                    writer.writerow([season, h, node,
                                     repr(float(d[h, j])), repr(float(v[h, j]))])
