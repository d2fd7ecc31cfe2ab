"""Structural digests: the content identity of compiled artefacts.

The compiled-structure store (:mod:`repro.structcache.store`) keys every
artefact by content, never by object identity or file path:

- a **topology digest** covers the exact node count, edge set and
  coordinates — everything :func:`topology_payload` captures. Distance
  matrices and drain paths are pure functions of the topology, so they
  are keyed by this digest alone.
- a **structure digest** additionally covers the full ``SimConfig``
  *minus the seed* (scheme, flow control, VC/VN geometry, drain/spin/PFC
  sections). Routing tables depend on the config-selected routing
  function, so they key on the pair. Seeds vary freely inside a
  structure; everything shaping the network does not.
- a **certificate digest** covers the preflight memo key (topology,
  scheme, flow control, pinned-flow set), mirroring the per-process
  ``_CERT_CACHE`` in :mod:`repro.analysis.preflight`.

``topology_payload`` deliberately duplicates
:func:`repro.harness.trials.topology_to_spec` instead of importing it —
the simulator consumes this package, and ``trials`` imports the
simulator, so an import here would close a cycle. A drift-guard test
(``tests/test_structcache.py``) pins the two encodings equal.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Sequence

from ..topology.graph import Topology

__all__ = [
    "STRUCT_FORMAT_VERSION",
    "canonical_json",
    "digest_payload",
    "topology_payload",
    "topology_digest",
    "structure_digest",
    "certificate_digest",
]

#: Bump to abandon every stored artefact when formats or semantics change.
STRUCT_FORMAT_VERSION = 1


def canonical_json(payload: Any) -> str:
    """Order-stable minimal JSON — the hashable encoding of a payload."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest_payload(payload: Any) -> str:
    """Hex BLAKE2b-128 digest of a payload's canonical JSON."""
    return hashlib.blake2b(
        canonical_json(payload).encode("utf-8"), digest_size=16
    ).hexdigest()


def topology_payload(topology: Topology) -> Dict[str, Any]:
    """Canonical JSON-able description of a topology (exact, order-stable).

    Field-for-field identical to ``repro.harness.trials.topology_to_spec``
    (see the module docstring for why it is duplicated, and the drift test
    that keeps them in lockstep).
    """
    spec: Dict[str, Any] = {
        "name": topology.name,
        "num_nodes": topology.num_nodes,
        "edges": [list(e) for e in topology.bidirectional_links()],
    }
    if topology.coordinates is not None:
        spec["coordinates"] = {
            str(node): list(xy) for node, xy in sorted(topology.coordinates.items())
        }
    return spec


def topology_digest(topology: Topology) -> str:
    """Content digest of a topology's exact structure."""
    return digest_payload(
        {"format": STRUCT_FORMAT_VERSION, "topology": topology_payload(topology)}
    )


def structure_digest(
    topo_payload: Dict[str, Any], config_dict: Dict[str, Any]
) -> str:
    """Digest of (topology, config-sans-seed) — the routing-table key.

    *config_dict* is a ``config_to_dict`` mapping; the seed is excluded
    because it shapes traffic streams, never the compiled structure, so N
    seeds over one configuration share one set of artefacts.
    """
    config = dict(config_dict)
    config.pop("seed", None)
    return digest_payload(
        {
            "format": STRUCT_FORMAT_VERSION,
            "topology": topo_payload,
            "config": config,
        }
    )


def certificate_digest(key: Sequence[str]) -> str:
    """Digest of a preflight certificate memo key (a tuple of strings)."""
    return digest_payload(
        {"format": STRUCT_FORMAT_VERSION, "certificate": list(key)}
    )
