import csv
import json
import math

import pytest

from sdhawkes.dataio import (
    Projection,
    RawPost,
    export_results,
    load_ground_truth,
    load_posts,
    load_synthetic_labels,
    preprocess,
    read_assignments,
    write_csv,
    write_synthetic,
)
from sdhawkes.generate import SynthConfig, generate
from sdhawkes.smc import EngineConfig, ParticleSystem
from sdhawkes.types import Hyperparams

from oracles import intensity_direct


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def test_load_jsonl_sorted():
    rows = [
        {"t": 200.0, "x": 0.2, "y": 0.2, "text": "b post"},
        {"t": 100.0, "x": 0.1, "y": 0.1, "text": "a post"},
        {"t": 300.0, "x": 0.3, "y": 0.3, "text": "c post"},
    ]
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "posts.jsonl")
        write_jsonl(path, rows)
        posts, issues = load_posts(path)
    assert issues == []
    assert [p.t_days for p in posts] == [100.0, 200.0, 300.0]
    assert posts[0].text == "a post"


def test_load_rejects_bad_rows_with_line_numbers(tmp_path):
    path = tmp_path / "posts.jsonl"
    rows = [
        {"t": 1.0, "lat": 40.7, "lon": -74.0, "text": "ok"},
        {"t": 2.0, "lat": 100.0, "lon": -74.0, "text": "bad lat"},
        {"t": 3.0, "lat": 40.8, "lon": -74.1, "text": "ok too"},
    ]
    write_jsonl(path, rows)
    posts, issues = load_posts(path)
    assert len(posts) == 2
    assert len(issues) == 1
    assert "line 2" in issues[0]


def test_load_csv_rejects_nonfinite_coordinate(tmp_path):
    path = tmp_path / "posts.csv"
    path.write_text("t,x,y,text\n0.1,0.2,0.3,a b\n0.2,nan,0.3,a c\n0.3,0.1,inf,b c\n")
    posts, issues = load_posts(path)
    assert [p.t_days for p in posts] == [0.1]
    assert issues == ["line 3: x must be finite, got nan",
                      "line 4: y must be finite, got inf"]


def test_load_jsonl_rejects_nonfinite_fields(tmp_path):
    path = tmp_path / "posts.jsonl"
    path.write_text(
        '{"t": 0.5, "x": 0.1, "y": 0.2, "text": "ok"}\n'
        '{"t": NaN, "x": 0.1, "y": 0.2, "text": "nan time"}\n'
        '{"t": 0.7, "x": Infinity, "y": 0.2, "text": "inf x"}\n'
        '{"t": NaN, "lat": 40.7, "lon": -74.0, "text": "nan epoch"}\n'
    )
    posts, issues = load_posts(path)
    assert [p.text for p in posts] == ["ok"]
    assert issues == ["line 2: t must be finite, got nan",
                      "line 3: x must be finite, got inf",
                      "line 4: t must be finite, got nan"]


def test_load_empty_file_errors(tmp_path):
    path = tmp_path / "posts.jsonl"
    path.write_text("")
    with pytest.raises(ValueError):
        load_posts(path)


def test_load_all_malformed_errors(tmp_path):
    path = tmp_path / "posts.jsonl"
    path.write_text("not json at all\n{broken\n3\n")
    with pytest.raises(ValueError):
        load_posts(path)


def test_load_csv(tmp_path):
    path = tmp_path / "posts.csv"
    path.write_text(
        "t,lat,lon,text\n"
        "2013-01-02T00:00:00Z,40.7,-74.0,hello world\n"
        "2013-01-01T00:00:00Z,40.8,-74.1,#nyc rocks\n"
    )
    posts, issues = load_posts(path)
    assert issues == []
    assert posts[0].text == "#nyc rocks"
    assert posts[1].t_days - posts[0].t_days == pytest.approx(1.0)


def test_load_epoch_seconds(tmp_path):
    path = tmp_path / "posts.jsonl"
    write_jsonl(path, [{"t": 86400, "lat": 40.0, "lon": -74.0, "text": "x"}])
    posts, _ = load_posts(path)
    assert posts[0].t_days == pytest.approx(1.0)


def test_preprocess_lowercase_and_hashtags():
    raws = [
        RawPost(t_days=0.0, text="Hello WORLD", x=0.1, y=0.1),
        RawPost(t_days=1.0, text="#nyc rocks", x=0.2, y=0.2),
    ]
    result = preprocess(raws, top_k=0)
    assert set(result.vocab) == {"hello", "world", "#nyc", "rocks"}
    tokens0 = [result.vocab[w] for w in result.posts[0].words]
    assert tokens0 == ["hello", "world"]


def test_preprocess_top_k_filter():
    raws = [RawPost(t_days=float(i), text="the cat", x=0.0, y=0.0)
            for i in range(3)]
    raws.append(RawPost(t_days=3.0, text="the dog the", x=0.0, y=0.0))
    result = preprocess(raws, top_k=1)
    assert "the" not in result.vocab
    for post in result.posts:
        assert all(result.vocab[w] != "the" for w in post.words)


def test_preprocess_rejects_negative_top_k():
    raws = [RawPost(t_days=0.0, text="a b c", x=0.0, y=0.0)]
    with pytest.raises(ValueError, match="top_k"):
        preprocess(raws, top_k=-3)


def test_preprocess_drops_emptied_posts():
    raws = [
        RawPost(t_days=0.0, text="only", x=0.0, y=0.0),
        RawPost(t_days=1.0, text="only only", x=0.0, y=0.0),
        RawPost(t_days=2.0, text="only keeper", x=0.0, y=0.0),
    ]
    result = preprocess(raws, top_k=1)
    assert result.n_dropped_empty == 2
    assert len(result.posts) == 1
    assert result.source_indices == [2]


def test_preprocess_all_empty_errors():
    raws = [RawPost(t_days=0.0, text="gone", x=0.0, y=0.0)]
    with pytest.raises(ValueError):
        preprocess(raws, top_k=1)


def test_preprocess_deterministic():
    raws = [RawPost(t_days=float(i), text=f"tok{i % 5} shared", x=0.1, y=0.2)
            for i in range(20)]
    a = preprocess(raws, top_k=2)
    b = preprocess(raws, top_k=2)
    assert a.vocab == b.vocab
    assert [p.words for p in a.posts] == [p.words for p in b.posts]


def test_projection_round_trip():
    proj = Projection(lat0=40.7128, lon0=-74.0060)
    for lat, lon in [(40.75, -73.98), (40.70, -74.05), (41.0, -73.6)]:
        x, y = proj.to_xy(lat, lon)
        lat2, lon2 = proj.to_latlon(x, y)
        assert abs(lat2 - lat) < 1e-6
        assert abs(lon2 - lon) < 1e-6


def test_preprocess_geographic_projection():
    raws = [
        RawPost(t_days=100.0, text="a a", lat=40.70, lon=-74.00),
        RawPost(t_days=101.0, text="b b", lat=40.71, lon=-74.00),
    ]
    result = preprocess(raws, top_k=0)
    assert result.projection is not None
    assert result.posts[0].t == 0.0
    assert result.posts[1].t == pytest.approx(1.0)
    dy = result.posts[1].y - result.posts[0].y
    assert dy == pytest.approx(0.01 * math.pi / 180 * 6_371_000, rel=1e-6)


def test_export_round_trip(tmp_path):
    hyper = Hyperparams(n_particles=2)
    posts = generate(SynthConfig(hyper=hyper, n_posts=60, seed=31,
                                 sigma0=0.05)).posts
    system = ParticleSystem(hyper, EngineConfig(seed=31))
    system.run(posts)
    result = system.map_estimate()
    trace_label = 0
    paths = export_results(result, tmp_path / "out",
                           trace_labels=[trace_label],
                           times=[p.t for p in posts])
    got = read_assignments(paths["assignments"])
    assert got == result.assignments

    with open(paths["patterns"], encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert sum(int(r["size"]) for r in rows) == len(posts)
    assert len(rows) == len(result.summaries)

    with open(paths[f"trace_{trace_label}"], encoding="utf-8", newline="") as fh:
        trace = list(csv.DictReader(fh))
    assert len(trace) == 401
    assert float(trace[0]["intensity"]) >= 0.0


def small_map_run(n_posts=80, seed=34):
    hyper = Hyperparams(n_particles=2, psi_tau=(0.25, 1.0))
    posts = generate(SynthConfig(hyper=hyper, n_posts=n_posts, seed=seed,
                                 sigma0=0.05)).posts
    system = ParticleSystem(hyper, EngineConfig(seed=seed))
    return posts, system.run(posts).map_estimate()


def test_export_traces_match_direct_intensity(tmp_path):
    posts, result = small_map_run()
    labels = [k for k, s in enumerate(result.summaries) if s.size >= 3][:3]
    assert labels
    paths = export_results(result, tmp_path, trace_labels=labels,
                           times=[p.t for p in posts])
    for label in labels:
        alpha, tau = result.summaries[label].alpha, result.summaries[label].tau
        times = [p.t for p, k in zip(posts, result.assignments) if k == label]
        t_lo, t_hi = times[0], times[-1] + 3.0 * tau
        with open(paths[f"trace_{label}"], encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 401
        for j, row in enumerate(rows):
            t = t_lo + (t_hi - t_lo) * j / 400
            expected = intensity_direct([ti for ti in times if ti <= t], t,
                                        alpha, tau)
            assert float(row["t"]) == pytest.approx(t, rel=1e-7)
            assert float(row["intensity"]) == pytest.approx(expected, rel=1e-7)


@pytest.mark.parametrize("trace_labels, n_times, message", [
    ((0,), 79, "79 post times for 80 assignments"),
    ((), 79, "79 post times for 80 assignments"),
    ((0,), None, "intensity traces need the post times"),
], ids=["traced", "untraced", "traced-without-times"])
def test_export_refuses_bad_times(tmp_path, trace_labels, n_times, message):
    posts, result = small_map_run()
    times = None if n_times is None else [p.t for p in posts[:n_times]]
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=message):
        export_results(result, out, trace_labels=trace_labels, times=times)
    assert not out.exists()


def test_export_single_post(tmp_path):
    hyper = Hyperparams(n_particles=1)
    posts = generate(SynthConfig(hyper=hyper, n_posts=1, seed=32)).posts
    system = ParticleSystem(hyper, EngineConfig(seed=32))
    system.run(posts)
    paths = export_results(system.map_estimate(), tmp_path)
    assert read_assignments(paths["assignments"]) == [0]


def test_synthetic_round_trip(tmp_path):
    hyper = Hyperparams(n_particles=1)
    synth = generate(SynthConfig(hyper=hyper, n_posts=40, seed=33, sigma0=0.05))
    posts_path = tmp_path / "synth.jsonl"
    truth_path = tmp_path / "truth.csv"
    write_synthetic(synth, posts_path, truth_path)

    labels = load_synthetic_labels(posts_path)
    assert labels == [p.label_true for p in synth.posts]

    params = load_ground_truth(truth_path)
    assert set(params) == set(synth.params)
    for label, p in params.items():
        orig = synth.params[label]
        assert p.kernel.alpha == orig.kernel.alpha
        assert p.sigma == orig.sigma
        assert p.center == orig.center
        assert list(p.theta) == list(orig.theta)

    raws, issues = load_posts(posts_path)
    assert issues == []
    result = preprocess(raws, top_k=0)
    assert len(result.posts) == 40
    assert [p.t for p in result.posts] == [p.t for p in synth.posts]
    assert [(p.x, p.y) for p in result.posts] == [(p.x, p.y) for p in synth.posts]


def test_overwrite_leaves_only_the_new_content(tmp_path):
    synth = generate(SynthConfig(hyper=Hyperparams(n_particles=1), n_posts=40, seed=33))
    posts_path = tmp_path / "synth.jsonl"
    truth_path = tmp_path / "truth.csv"
    write_synthetic(synth, posts_path, truth_path)
    first = posts_path.read_bytes(), truth_path.read_bytes()
    posts_path.write_bytes(first[0] * 3)
    truth_path.write_bytes(first[1] * 3)
    write_synthetic(synth, posts_path, truth_path)
    assert (posts_path.read_bytes(), truth_path.read_bytes()) == first

    out = tmp_path / "table.csv"
    out.write_text("a,b\n" * 100)
    write_csv(out, ["a"], [[1]])
    assert out.read_text() == "a\n1\n"


def test_symlinked_output_is_written_through(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old,longer,content\n" * 10)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    write_csv(link, ["a", "b"], [[1, 2]])
    assert link.is_symlink()
    assert target.read_text() == "a,b\n1,2\n"
