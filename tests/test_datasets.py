import io
import subprocess
import sys
import tarfile
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from sfrgnn.datasets import download_cora, find_raw_cora, prepare_cora
from sfrgnn.errors import DatasetFormatError
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
        "31336\t99999",  # unknown paper, must be dropped
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


@pytest.mark.parametrize("name, old, new, message", [
    ("cora.content", b"1061127\t0", b"1061127\t\xe9", "line 1: 'utf-8' codec"),
    ("cora.cites", b"13195\t13195", b"13195\t\xe913195", "line 3: 'utf-8' codec"),
    ("cora.content", b"1106406\t0", b"1106406\tx", "line 2: could not convert"),
    ("cora.content", b"\t0\tNeural", b"\tNeural", "rows of different widths"),
    ("cora.cites", b"13195\t31336", b"13195\t31336\t1061127", "line 4: expected `cited"),
    ("cora.cites", b"1061127\t1106406", b"1061127", "line 2: expected `cited"),
], ids=["content-not-utf8", "cites-not-utf8", "content-not-numeric", "content-widths",
        "cites-three-tokens", "cites-one-token"])
def test_malformed_raw_citation_file_is_format_error(tmp_path, name, old, new, message):
    raw = tmp_path / "raw" / "cora"
    write_raw_citation_fixture(raw)
    (raw / name).write_bytes((raw / name).read_bytes().replace(old, new, 1))
    with pytest.raises(DatasetFormatError, match=message) as info:
        prepare_cora(tmp_path / "out", raw_dir=tmp_path / "raw")
    assert name in str(info.value)


def test_fetch_script_reports_format_errors_without_a_traceback(tmp_path):
    raw = tmp_path / "raw" / "cora"
    write_raw_citation_fixture(raw)
    (raw / "cora.content").write_text("31336\tx\tGenetic_Algorithms\n")
    script = Path(__file__).resolve().parents[1] / "scripts" / "fetch_cora.py"
    done = subprocess.run(
        [sys.executable, str(script), "--dest", str(tmp_path / "out"), "--raw-dir", str(raw)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == DatasetFormatError.exit_code == 1
    assert done.stderr.startswith("error: ") and "line 0: could not convert" in done.stderr
    assert "Traceback" not in done.stderr


def tgz(members):
    """A gzipped tarball of (name, bytes) files and (name, "->", target) links."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w:gz") as tar:
        for name, *rest in members:
            info = tarfile.TarInfo(name)
            if rest[0] == "->":
                info.type, info.linkname = tarfile.SYMTYPE, rest[1]
                tar.addfile(info)
            else:
                info.size = len(rest[0])
                tar.addfile(info, io.BytesIO(rest[0]))
    return buf.getvalue()


def serve(monkeypatch, archive):
    monkeypatch.setattr(urllib.request, "urlopen", lambda url, timeout: io.BytesIO(archive))


@pytest.mark.parametrize("escape", [
    [("cora/cora.content", b""), ("cora/cora.cites", b""), ("../escape", b"x")],
    [("cora/cora.content", b""), ("cora/cora.cites", b""), ("link", "->", ".."),
     ("link/escape", b"x")],
], ids=["dotdot", "symlink"])
def test_download_refuses_members_outside_the_raw_dir(tmp_path, monkeypatch, escape):
    serve(monkeypatch, tgz(escape))
    raw_dir = tmp_path / "raw"
    with pytest.raises(DatasetFormatError, match="could not download"):
        download_cora(raw_dir)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["raw"]
    assert not (raw_dir / "link").exists()


@pytest.mark.parametrize("filters", [True, False], ids=["tarfile-filters", "no-filters"])
def test_download_unpacks_the_archive(tmp_path, monkeypatch, filters):
    if not filters:  # tarfile before Python 3.10.12 and 3.11.4
        monkeypatch.delattr(tarfile, "data_filter", raising=False)
    raw = tmp_path / "fixture"
    write_raw_citation_fixture(raw)
    serve(monkeypatch, tgz([(f"cora/{name}", (raw / name).read_bytes())
                            for name in ("cora.content", "cora.cites")]))
    found = download_cora(tmp_path / "raw")
    assert found == tmp_path / "raw" / "cora"
    assert (found / "cora.cites").read_bytes() == (raw / "cora.cites").read_bytes()
