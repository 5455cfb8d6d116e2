import numpy as np

from sfrgnn.datasets import find_raw_cora, prepare_cora
from sfrgnn.graph import graph_stats, load_graph, write_graph


def write_raw_citation_fixture(raw_dir):
    """Miniature dataset in the raw cora.content / cora.cites format."""
    raw_dir.mkdir(parents=True)
    content = [
        # paper_id  <features...>  class_name
        "31336\t1\t0\t0\t1\tGenetic_Algorithms",
        "1061127\t0\t1\t0\t0\tNeural_Networks",
        "1106406\t0\t0\t1\t0\tNeural_Networks",
        "13195\t1\t1\t0\t0\tGenetic_Algorithms",
    ]
    cites = [
        "31336\t1061127",
        "1061127\t31336",  # reversed duplicate, must collapse
        "1061127\t1106406",
        "13195\t13195",  # self-citation, must be dropped
        "13195\t31336",
    ]
    (raw_dir / "cora.content").write_text("".join(f"{ln}\n" for ln in content))
    (raw_dir / "cora.cites").write_text("".join(f"{ln}\n" for ln in cites))


def test_prepare_converts_raw_citation_files(tmp_path):
    raw = tmp_path / "raw" / "cora"
    write_raw_citation_fixture(raw)
    assert find_raw_cora(tmp_path / "raw") == raw

    dest = prepare_cora(tmp_path / "out", raw_dir=tmp_path / "raw")
    g = load_graph(dest)
    stats = graph_stats(g)
    assert stats.num_nodes == 4
    assert stats.num_edges == 3  # 4 distinct citations, one reversed duplicate
    assert g.num_classes == 2
    assert g.features.shape == (4, 4)
    # node order follows the content file; class ids follow sorted class names
    np.testing.assert_array_equal(g.labels, [0, 1, 1, 0])
    np.testing.assert_array_equal(g.features[0], [1.0, 0.0, 0.0, 1.0])
    assert (dest / "features.f32le").is_file()
    assert not (dest / "splits.json").exists()  # splits stay caller-controlled
    # the files are those `write_graph` writes for the graph they load as
    ref = tmp_path / "ref"
    write_graph(g, ref, binary_features=True)
    for name in ("edges.tsv", "features.tsv", "features.f32le", "labels.tsv", "meta.json"):
        assert (dest / name).read_bytes() == (ref / name).read_bytes(), name
