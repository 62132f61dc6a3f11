import csv
import json

import numpy as np
import pytest

from sdhawkes.cli import main
from sdhawkes.dataio import load_posts, preprocess, read_assignments
from sdhawkes.evaluation import GmmStreamPredictor, spatial_gof
from sdhawkes.smc import EngineConfig, ParticleSystem
from sdhawkes.types import Hyperparams


def run_cli(*argv):
    return main([str(a) for a in argv])


def gen_args(tmp_path, n=80, seed=5, sigma0=0.02, extra=()):
    tmp_path.mkdir(parents=True, exist_ok=True)
    posts = tmp_path / "posts.jsonl"
    truth = tmp_path / "truth.csv"
    code = run_cli("generate", "--n", n, "--out", posts, "--truth", truth,
                   "--seed", seed, "--sigma0", sigma0, *extra)
    assert code == 0
    return posts, truth


def test_generate_deterministic(tmp_path):
    p1, t1 = gen_args(tmp_path / "a", seed=9)
    p2, t2 = gen_args(tmp_path / "b", seed=9)
    assert p1.read_text() == p2.read_text()
    assert t1.read_text() == t2.read_text()
    p3, _ = gen_args(tmp_path / "c", seed=10)
    assert p1.read_text() != p3.read_text()


def test_generate_validation_error(tmp_path):
    code = run_cli("generate", "--n", 10, "--out", tmp_path / "p.jsonl",
                   "--truth", tmp_path / "t.csv", "--sigma0", -1.0)
    assert code == 1


def test_infer_and_nmi_roundtrip(tmp_path, capsys):
    posts, truth = gen_args(tmp_path, n=100, seed=6)
    out_dir = tmp_path / "run"
    code = run_cli("infer", "--input", posts, "--out-dir", out_dir,
                   "--seed", 6, "--top-k", 0, "--particles", 2)
    assert code == 0
    assignments = read_assignments(out_dir / "assignments.csv")
    assert len(assignments) == 100

    capsys.readouterr()
    code = run_cli("evaluate", "nmi", "--assignments",
                   out_dir / "assignments.csv", "--truth", posts)
    assert code == 0
    out = capsys.readouterr().out
    assert out.strip().startswith("nmi ")
    value = float(out.split()[-1])
    assert 0.0 <= value <= 1.0


def test_evaluate_nmi_perfect_labels(tmp_path, capsys):
    posts, _ = gen_args(tmp_path, n=60, seed=7)
    # write the true labels as an assignments file: NMI must be 1
    labels = [json.loads(line)["label"] for line in posts.read_text().splitlines()]
    a_path = tmp_path / "true_assignments.csv"
    with open(a_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["post_index", "label"])
        for i, lab in enumerate(labels):
            writer.writerow([i, lab])
    capsys.readouterr()
    code = run_cli("evaluate", "nmi", "--assignments", a_path, "--truth", posts)
    assert code == 0
    assert float(capsys.readouterr().out.split()[-1]) == pytest.approx(1.0)


def test_infer_spatial_off_matches_dhp(tmp_path):
    # --spatial-off is the content+time model: the engine with the spatial
    # factor off, on the CLI's default hyperparameters
    posts_path, _ = gen_args(tmp_path, n=90, seed=8)
    out_dir = tmp_path / "run"
    assert run_cli("infer", "--input", posts_path, "--out-dir", out_dir,
                   "--seed", 8, "--top-k", 0, "--spatial-off") == 0
    prep = preprocess(load_posts(posts_path)[0], top_k=0)
    hyper = Hyperparams(vocab_size=prep.vocab_size)
    expected = {}
    for spatial in (False, True):
        system = ParticleSystem(hyper, EngineConfig(seed=8, spatial=spatial))
        expected[spatial] = system.run(prep.posts).map_estimate().assignments
    got = read_assignments(out_dir / "assignments.csv")
    assert got == expected[False]
    assert got != expected[True]


def test_infer_resume_matches_straight_run(tmp_path):
    posts, _ = gen_args(tmp_path, n=80, seed=13)
    straight_dir = tmp_path / "straight"
    assert run_cli("infer", "--input", posts, "--out-dir", straight_dir,
                   "--seed", 13, "--top-k", 0) == 0

    ck = tmp_path / "ck.json"
    part_dir = tmp_path / "part"
    assert run_cli("infer", "--input", posts, "--out-dir", part_dir,
                   "--seed", 13, "--top-k", 0,
                   "--checkpoint", ck, "--checkpoint-every", 40) == 0
    # re-running from the mid-stream checkpoint must land on the same result
    resumed_dir = tmp_path / "resumed"
    mid = json.loads(ck.read_text())
    assert mid["n"] == 80  # final checkpoint was written at the end
    # rebuild a mid-stream checkpoint by stopping at 40
    ck40 = tmp_path / "ck40.json"
    half_dir = tmp_path / "half"
    half_posts = tmp_path / "half.jsonl"
    lines = posts.read_text().splitlines()
    half_posts.write_text("\n".join(lines[:40]) + "\n")
    assert run_cli("infer", "--input", half_posts, "--out-dir", half_dir,
                   "--seed", 13, "--top-k", 0, "--checkpoint", ck40) == 0
    assert run_cli("infer", "--input", posts, "--out-dir", resumed_dir,
                   "--seed", 13, "--top-k", 0, "--resume", ck40) == 0
    assert read_assignments(resumed_dir / "assignments.csv") == \
        read_assignments(straight_dir / "assignments.csv")


def test_config_file_precedence(tmp_path, capsys):
    posts, truth = gen_args(tmp_path, n=50, seed=14)
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"particles": 1, "lambda0": 5.0}))
    out_dir = tmp_path / "out"
    code = run_cli("infer", "--input", posts, "--out-dir", out_dir,
                   "--config", conf, "--top-k", 0, "--seed", 14)
    assert code == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    code = run_cli("infer", "--input", posts, "--out-dir", out_dir,
                   "--config", bad, "--top-k", 0)
    assert code == 1


def test_missing_input_is_runtime_or_validation_error(tmp_path):
    code = run_cli("infer", "--input", tmp_path / "nope.jsonl",
                   "--out-dir", tmp_path / "o")
    assert code in (1, 2)


def test_usage_error_exits_one():
    assert run_cli("infer") == 1
    assert run_cli("evaluate", "bogus-metric") == 1


def test_infer_rejects_unknown_trace_label(tmp_path):
    posts, _ = gen_args(tmp_path, n=40, seed=6)
    out_dir = tmp_path / "run"
    code = run_cli("infer", "--input", posts, "--out-dir", out_dir,
                   "--seed", 6, "--top-k", 0, "--particles", 2, "--traces", "0,9999")
    assert code == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("burn_in, window", [(30, 0), (-5, 100)])
def test_gof_rejects_bad_scan_bounds(tmp_path, burn_in, window):
    posts, _ = gen_args(tmp_path, n=120, seed=16)
    code = run_cli("gof", "--input", posts, "--top-k", 0, "--particles", 2,
                   "--burn-in", burn_in, "--window", window)
    assert code == 1


def test_gof_refuses_short_dataset(tmp_path):
    posts, _ = gen_args(tmp_path, n=50, seed=15)
    code = run_cli("gof", "--input", posts, "--top-k", 0)
    assert code == 1


def test_gof_small_window(tmp_path, capsys):
    posts, _ = gen_args(tmp_path, n=120, seed=16)
    out = tmp_path / "metrics.csv"
    code = run_cli("gof", "--input", posts, "--top-k", 0, "--particles", 2,
                   "--burn-in", 30, "--window", 80, "--out", out)
    assert code == 0
    text = capsys.readouterr().out
    assert "spatial_gof sdhp" in text
    assert "perplexity uniform" in text
    with open(out, newline="") as fh:
        rows = {(r["metric"], r["model"]): float(r["value"])
                for r in csv.DictReader(fh)}
    assert rows[("spatial_gof", "uniform")] == 0.0
    assert rows[("perplexity", "uniform")] == 15.0


def test_predict_command(tmp_path, capsys):
    posts, _ = gen_args(tmp_path, n=150, seed=17, extra=(
        "--lambda0", 2.0, "--alpha-time", 4.0, "--beta-time", 2.0))
    out_dir = tmp_path / "pred"
    code = run_cli("predict", "--input", posts, "--out-dir", out_dir,
                   "--trials", 3, "--top-k", 0, "--particles", 2,
                   "--lambda0", 2.0, "--alpha-time", 4.0, "--beta-time", 2.0,
                   "--seed", 17)
    assert code == 0
    with open(out_dir / "prediction_metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["criterion"] for r in rows} == {"loose", "tight"}


def test_sweep_sigma0(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli("evaluate", "sweep-sigma0", "--sigma0-grid", "0.05",
                   "--trials", 2, "--n", 60, "--with-dhp", "--out", out,
                   "--particles", 2, "--seed", 18)
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert {r["model"] for r in rows} == {"sdhp", "dhp"}
    for r in rows:
        assert 0.0 <= float(r["mean_nmi"]) <= 1.0


def test_delta_alpha_command(tmp_path, capsys):
    posts, truth = gen_args(tmp_path, n=150, seed=19, extra=(
        "--alpha-time", 2.0, "--beta-time", 2.0))
    code = run_cli("evaluate", "delta-alpha", "--input", posts,
                   "--truth", truth, "--particles", 2, "--seed", 19,
                   "--alpha-time", 2.0, "--beta-time", 2.0)
    assert code == 0
    out = capsys.readouterr().out
    assert "bucket,count,median_delta_alpha" in out


def test_gof_with_gmm_matches_direct_schedule(tmp_path):
    posts_path, _ = gen_args(tmp_path, n=120, seed=21)
    out = tmp_path / "metrics.csv"
    code = run_cli("gof", "--input", posts_path, "--top-k", 0, "--particles", 2,
                   "--burn-in", 30, "--window", 80, "--with-gmm", "--seed", 21,
                   "--out", out)
    assert code == 0
    with open(out, newline="") as fh:
        rows = {(r["metric"], r["model"]): float(r["value"])
                for r in csv.DictReader(fh)}

    # the component schedule: after each post, the pattern count S of the
    # particle with the largest weight
    raws, _ = load_posts(posts_path)
    prep = preprocess(raws, top_k=0)
    posts = prep.posts
    hyper = Hyperparams(n_particles=2, vocab_size=prep.vocab_size)
    system = ParticleSystem(hyper, EngineConfig(seed=21, prune_threshold=1e-12))
    schedule = []
    for post in posts[:110]:
        system.step(post)
        schedule.append(system.particles[int(np.argmax(system.weights))].S)
    gmm = GmmStreamPredictor(schedule, 2.0 * hyper.beta_space, seed=21)
    assert rows[("spatial_gof", "gmm")] == spatial_gof(posts, gmm, 30, 80)


def test_infer_resume_rejects_mismatched_input(tmp_path, capsys):
    posts, _ = gen_args(tmp_path / "full", n=60, seed=22)
    ck = tmp_path / "ck.json"
    assert run_cli("infer", "--input", posts, "--out-dir", tmp_path / "a",
                   "--seed", 22, "--top-k", 0, "--particles", 2,
                   "--checkpoint", ck) == 0
    vocab = json.loads(ck.read_text())["hyper"]["vocab_size"]

    short = tmp_path / "short.jsonl"
    short.write_text("\n".join(posts.read_text().splitlines()[:20]) + "\n")
    capsys.readouterr()
    assert run_cli("infer", "--input", short, "--out-dir", tmp_path / "b",
                   "--top-k", 0, "--resume", ck) == 1
    err = capsys.readouterr().err
    assert "20 posts" in err and "60" in err

    small, _ = gen_args(tmp_path / "small", n=80, seed=22,
                        extra=("--vocab-size", 8))
    assert run_cli("infer", "--input", small, "--out-dir", tmp_path / "c",
                   "--top-k", 0, "--resume", ck) == 1
    small_vocab = preprocess(load_posts(small)[0], top_k=0).vocab_size
    assert small_vocab != vocab
    err = capsys.readouterr().err
    assert f"{small_vocab} words" in err and f"has {vocab}" in err
