"""JSON (de)serialisation of topologies, paths and campaigns.

A real deployment measures with one toolchain and infers with another;
this module is the seam: a topology + path set + snapshot series can be
written to a single JSON document and loaded back into the exact objects
LIA consumes, so external measurement data (or archived campaigns) drive
the library without touching the simulators.

Format (documented, versioned)::

    {
      "format": "repro-campaign/1",
      "network": {"nodes": N, "links": [[tail, head], ...]},
      "beacons": [...], "destinations": [...],
      "paths": [{"source": s, "dest": d, "links": [link_index, ...]}, ...],
      "snapshots": [
         {"num_probes": S, "path_transmission": [...]},
         ...
      ]
    }
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from pathlib import Path as FilePath
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.probing.snapshot import MeasurementCampaign, Snapshot
from repro.topology.graph import Network, Path
from repro.topology.routing import RoutingMatrix

FORMAT_TAG = "repro-campaign/1"


@dataclass
class CampaignDocument:
    """Everything needed to run LIA, bundled for storage."""

    network: Network
    beacons: List[int]
    destinations: List[int]
    paths: List[Path]
    snapshots: List[Snapshot]

    def routing(self) -> RoutingMatrix:
        return RoutingMatrix.from_paths(self.paths)

    def campaign(self) -> MeasurementCampaign:
        return MeasurementCampaign(
            routing=self.routing(), snapshots=list(self.snapshots)
        )


def network_to_dict(network: Network) -> Dict:
    return {
        "nodes": network.num_nodes,
        "links": [[link.tail, link.head] for link in network.links],
    }


def network_from_dict(payload: Dict, other_references: int = 0) -> Network:
    """Load a network, refusing more nodes than anything can reference.

    A node id is referenced by a link endpoint or, in a campaign
    document, by one of *other_references* beacon and destination
    entries; a declared node beyond that count could only be isolated,
    and building a million of them takes seconds before any link is
    read, so ``nodes`` is bounded by two per link plus
    *other_references*.
    """
    links = _list(payload, "links", "network")
    limit = 2 * len(links) + other_references
    num_nodes = _integer(_field(payload, "nodes", "network"), "network.nodes")
    if num_nodes > limit:
        raise ValueError(
            f"network.nodes must be at most {limit} (two per link plus one "
            f"per beacon and destination), got {num_nodes}"
        )
    network = Network()
    for node in range(num_nodes):
        network.add_node(node)
    for index, entry in enumerate(links):
        at = f"network.links[{index}]"
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise ValueError(f"{at} must be a [tail, head] pair, got {entry!r}")
        tail = _integer(entry[0], f"{at}[0]", bound=num_nodes)
        head = _integer(entry[1], f"{at}[1]", bound=num_nodes)
        try:
            network.add_link(tail, head)
        except ValueError as error:
            raise ValueError(f"{at}: {error}") from None
    return network


def paths_to_list(paths: Sequence[Path]) -> List[Dict]:
    return [
        {
            "source": p.source,
            "dest": p.dest,
            "links": list(p.link_indices()),
        }
        for p in paths
    ]


def paths_from_list(payload: Sequence[Dict], network: Network) -> List[Path]:
    if not isinstance(payload, (list, tuple)):
        raise ValueError(f"paths must be a list, got {type(payload).__name__}")
    paths: List[Path] = []
    for index, entry in enumerate(payload):
        at = f"paths[{index}]"
        links = tuple(
            network.link(
                _integer(link, f"{at}.links[{k}]", bound=network.num_links)
            )
            for k, link in enumerate(_list(entry, "links", at))
        )
        source = _integer(_field(entry, "source", at), f"{at}.source")
        dest = _integer(_field(entry, "dest", at), f"{at}.dest")
        try:
            paths.append(
                Path(index=index, source=source, dest=dest, links=links)
            )
        except ValueError as error:
            raise ValueError(f"{at}: {error}") from None
    return paths


def document_to_dict(document: CampaignDocument) -> Dict:
    return {
        "format": FORMAT_TAG,
        "network": network_to_dict(document.network),
        "beacons": list(document.beacons),
        "destinations": list(document.destinations),
        "paths": paths_to_list(document.paths),
        "snapshots": [
            {
                "num_probes": snap.num_probes,
                "path_transmission": snap.path_transmission.tolist(),
            }
            for snap in document.snapshots
        ],
    }


def document_from_dict(payload: Dict) -> CampaignDocument:
    """Load a campaign document, rejecting malformed input.

    Every defect — a missing field, a wrong type, a fractional count, an
    index outside its list, a node id the network does not have —
    raises a ``ValueError`` naming the field, never some other exception
    and never a silently coerced value.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"a campaign document must be a JSON object, got {type(payload).__name__}"
        )
    tag = payload.get("format")
    if tag != FORMAT_TAG:
        raise ValueError(f"unsupported document format {tag!r}")
    beacons = _list(payload, "beacons", "document")
    destinations = _list(payload, "destinations", "document")
    network = network_from_dict(
        _field(payload, "network", "document"), len(beacons) + len(destinations)
    )
    paths = paths_from_list(_field(payload, "paths", "document"), network)
    snapshots = []
    for index, entry in enumerate(_list(payload, "snapshots", "document")):
        at = f"snapshots[{index}]"
        rates = _rates(_field(entry, "path_transmission", at), f"{at}.path_transmission")
        if rates.shape[0] != len(paths):
            raise ValueError(
                f"{at}: snapshot width {rates.shape[0]} does not match "
                f"path count {len(paths)}"
            )
        num_probes = _integer(_field(entry, "num_probes", at), f"{at}.num_probes")
        try:
            snapshots.append(Snapshot(path_transmission=rates, num_probes=num_probes))
        except ValueError as error:
            raise ValueError(f"{at}: {error}") from None
    return CampaignDocument(
        network=network,
        beacons=[
            _integer(b, f"beacons[{k}]", bound=network.num_nodes)
            for k, b in enumerate(beacons)
        ],
        destinations=[
            _integer(d, f"destinations[{k}]", bound=network.num_nodes)
            for k, d in enumerate(destinations)
        ],
        paths=paths,
        snapshots=snapshots,
    )


def _field(payload, key: str, where: str):
    """``payload[key]``, or a ValueError naming what is missing where."""
    if not isinstance(payload, dict):
        raise ValueError(f"{where} must be an object, got {type(payload).__name__}")
    if key not in payload:
        raise ValueError(f"{where} is missing the {key!r} field")
    return payload[key]


def _list(payload, key: str, where: str) -> Sequence:
    value = _field(payload, key, where)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where}.{key} must be a list, got {type(value).__name__}")
    return value


def _integer(value, field: str, bound: Optional[int] = None) -> int:
    """A non-negative integer (below *bound*, when given); no coercion."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    if value < 0 or (bound is not None and value >= bound):
        limit = "a non-negative integer" if bound is None else f"in [0, {bound})"
        raise ValueError(f"{field} must be {limit}, got {value}")
    return int(value)


def _rates(values, field: str) -> np.ndarray:
    """A one-dimensional numeric array (the range check is Snapshot's)."""
    if isinstance(values, (list, tuple)) and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values
    ):
        return np.asarray(values, dtype=np.float64)
    raise ValueError(f"{field} must be a list of numbers")


def save_campaign(
    document: CampaignDocument, path: Union[str, FilePath]
) -> None:
    """Write a campaign document as JSON."""
    with open(path, "w") as handle:
        json.dump(document_to_dict(document), handle)


def load_campaign(path: Union[str, FilePath]) -> CampaignDocument:
    """Read a campaign document written by :func:`save_campaign`."""
    with open(path) as handle:
        payload = json.load(handle)
    return document_from_dict(payload)
