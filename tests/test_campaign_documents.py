"""Campaign documents at the JSON boundary: bad input is a clear error.

``document_from_dict`` is where external measurement data enters the
library.  Malformed input must raise a ``ValueError`` that names the
field, so ``repro infer``/``compare`` exit 2 with a one-line message.
It must never raise another exception, and it must never load a
silently coerced value.
"""

import copy
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.io import CampaignDocument, document_from_dict, document_to_dict
from repro.probing import Snapshot
from repro.topology.examples import figure2_paths
from repro.topology.graph import Network


def valid_payload() -> dict:
    """The Figure 2 system (8 links, 6 paths) with four snapshots."""
    network, paths = figure2_paths()
    rng = np.random.default_rng(0)
    snapshots = [
        Snapshot(
            path_transmission=rng.uniform(0.9, 1.0, size=len(paths)),
            num_probes=100,
        )
        for _ in range(4)
    ]
    document = CampaignDocument(
        network=network,
        beacons=sorted({p.source for p in paths}),
        destinations=sorted({p.dest for p in paths}),
        paths=paths,
        snapshots=snapshots,
    )
    return json.loads(json.dumps(document_to_dict(document)))


VALID = valid_payload()


def _alias_last_link(payload):
    """Rewrite a path's last link index as its negative alias."""
    links = payload["paths"][0]["links"]
    links[-1] -= len(payload["network"]["links"])


BAD_DOCUMENTS = [
    pytest.param(
        lambda d: d["paths"][0]["links"].__setitem__(0, 10**6),
        "paths[0].links[0]",
        id="link-index-past-the-end",
    ),
    pytest.param(lambda d: d.pop("snapshots"), "'snapshots'", id="missing-key"),
    pytest.param(
        lambda d: d["snapshots"][0].__setitem__("num_probes", 2.7),
        "snapshots[0].num_probes",
        id="fractional-probe-count",
    ),
    pytest.param(_alias_last_link, "paths[0].links[", id="negative-link-index"),
    pytest.param(
        lambda d: d["network"]["links"].append([0, 999]),
        "network.links[8][1]",
        id="node-outside-the-network",
    ),
    pytest.param(
        lambda d: d["network"].__setitem__("nodes", 10**6),
        "network.nodes",
        id="more-nodes-than-references",
    ),
]


@pytest.mark.parametrize("mutate, field", BAD_DOCUMENTS)
def test_bad_document_is_a_value_error_naming_the_field(
    mutate, field, tmp_path, capsys
):
    payload = copy.deepcopy(VALID)
    mutate(payload)
    with pytest.raises(ValueError, match=re.escape(field)):
        document_from_dict(payload)

    target = tmp_path / "campaign.json"
    target.write_text(json.dumps(payload))
    for verb in (["infer"], ["compare", "--methods", "lia"]):
        assert main([*verb, str(target)]) == 2
        assert field in capsys.readouterr().err


def test_valid_document_round_trips():
    assert document_to_dict(document_from_dict(VALID)) == VALID


def test_huge_node_count_is_refused_before_building_nodes(monkeypatch):
    """A million declared nodes over eight links fail at once: no node
    is added before the count is checked against the references."""
    payload = copy.deepcopy(VALID)
    payload["network"]["nodes"] = 10**6
    added = []
    monkeypatch.setattr(Network, "add_node", lambda self, node: added.append(node))
    with pytest.raises(ValueError, match=r"network\.nodes must be at most 2\d"):
        document_from_dict(payload)
    assert added == []


def test_node_count_at_the_reference_bound_loads():
    payload = copy.deepcopy(VALID)
    references = len(payload["beacons"]) + len(payload["destinations"])
    payload["network"]["nodes"] = 2 * len(payload["network"]["links"]) + references
    document = document_from_dict(payload)
    assert document.network.num_nodes == payload["network"]["nodes"]


#: Replacement values for the fuzz: wrong types, fractional and
#: out-of-range numbers, and non-finite floats.
ODD_VALUES = [None, True, -1, 0, 2.7, 10**6, "x", [], {}, [[1]], float("nan")]


@st.composite
def mutated_documents(draw):
    """A valid document with one to three keys dropped or values swapped."""
    payload = copy.deepcopy(VALID)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        node = payload
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            if not keys:
                break
            key = draw(st.sampled_from(keys))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            if draw(st.booleans()):
                del node[key]
            else:
                node[key] = draw(st.sampled_from(ODD_VALUES))
            break
    return payload


@settings(max_examples=150, deadline=None, derandomize=True)
@given(payload=mutated_documents())
def test_mutated_document_loads_and_round_trips_or_raises_value_error(payload):
    try:
        document = document_from_dict(payload)
    except ValueError:
        return
    written = json.loads(json.dumps(document_to_dict(document)))
    assert document_to_dict(document_from_dict(written)) == written
