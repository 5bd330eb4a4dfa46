import dataclasses
import json
import struct

import numpy as np
import pytest

from audiorec import io
from audiorec.data import CatalogItem, InteractionRecord, Interactions, timeline_split
from audiorec.graph import build_colisten_graph
from audiorec.hgnn import HgnnConfig, HgnnParams, embed_catalog, train_hgnn
from audiorec.synth import SynthConfig, synth_generate


def make_catalog(n_audiobooks=4, n_podcasts=3, d_c=4, seed=0):
    rng = np.random.default_rng(seed)
    catalog = {}
    for i in range(n_audiobooks):
        catalog[f"a{i}"] = CatalogItem(f"a{i}", "audiobook", rng.normal(size=d_c), "en", "g0")
    for i in range(n_podcasts):
        catalog[f"p{i}"] = CatalogItem(f"p{i}", "podcast", rng.normal(size=d_c), "en", "g0")
    return catalog


def stream(user, item, catalog, t=0):
    return InteractionRecord(user, item, catalog[item].item_type, "stream", t)


def same_log(a: Interactions, b: Interactions) -> bool:
    """Whether two logs hold equal columns of equal dtypes."""
    return all(
        getattr(a, f.name).dtype == getattr(b, f.name).dtype and np.array_equal(getattr(a, f.name), getattr(b, f.name))
        for f in dataclasses.fields(Interactions)
    )


def split_container(data: bytes) -> tuple[dict, bytes]:
    """A `write_pack` container's JSON header and its array payload."""
    start = len(io.PACK_MAGIC) + 4
    (hlen,) = struct.unpack_from("<I", data, len(io.PACK_MAGIC))
    return json.loads(data[start : start + hlen]), data[start + hlen :]


def join_container(header: dict, payload: bytes) -> bytes:
    blob = json.dumps(header).encode()
    return io.PACK_MAGIC + struct.pack("<I", len(blob)) + blob + payload


def random_log(rng, n_users=10, catalog=None, max_items=5):
    records = []
    ids = list(catalog)
    for u in range(n_users):
        k = int(rng.integers(1, max_items + 1))
        for item in rng.choice(ids, size=min(k, len(ids)), replace=False):
            records.append(stream(f"u{u}", str(item), catalog, int(rng.integers(0, 1000))))
    return records


@pytest.fixture(scope="session")
def small_synth_config():
    # denser rates than default: at 150 users the min_co_users=2 graph would
    # otherwise lose all audiobook-audiobook edges
    return SynthConfig(
        n_users=150,
        n_podcasts=60,
        n_audiobooks=30,
        n_clusters=3,
        d_c=8,
        n_cold_items=2,
        audiobook_stream_rate=0.02,
        podcast_stream_rate=0.015,
    )


@pytest.fixture(scope="session")
def small_synth(small_synth_config):
    log, catalog = synth_generate(small_synth_config, seed=7)
    return log, catalog


@pytest.fixture(scope="session")
def small_split(small_synth):
    log, _ = small_synth
    return timeline_split(log)


@pytest.fixture(scope="session")
def small_graph(small_synth, small_split):
    _, catalog = small_synth
    return build_colisten_graph(small_split.train, catalog, min_co_users=2)


@pytest.fixture(scope="session")
def small_hgnn_config():
    return HgnnConfig(
        hidden_dim=16,
        out_dim=16,
        fanouts=(8, 8),
        n_negatives=4,
        learning_rate=5e-3,
        batch_size=64,
        max_epochs=8,
        patience=3,
    )


@pytest.fixture(scope="session")
def trained_hgnn(small_graph, small_hgnn_config):
    feature_dim = int(next(iter(small_graph.features.values())).shape[1])
    params = HgnnParams.init(
        small_hgnn_config,
        feature_dim,
        small_graph.node_types,
        small_graph.relations,
        seed=7,
    )
    return train_hgnn(small_graph, params, seed=7)


@pytest.fixture(scope="session")
def small_embeddings(small_graph, small_synth, trained_hgnn):
    _, catalog = small_synth
    return embed_catalog(small_graph, trained_hgnn.params, catalog)
