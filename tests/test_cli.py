import csv
import json

import numpy as np
import pytest

from sdhawkes.cli import main
from sdhawkes.dataio import load_ground_truth, load_posts, preprocess, read_assignments
from sdhawkes.evaluation import GmmStreamPredictor, alpha_precision_records, spatial_gof
from sdhawkes.smc import EngineConfig, ParticleSystem
from sdhawkes.types import Hyperparams

from checkpoint_lines import read_lines


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


@pytest.mark.parametrize("flags, stream", [
    ((), ()),
    # a sparser stream, so that patterns retire before the mid-stream checkpoint
    (("--prune", "--psi-tau", 0.041667), ("--lambda0", 2)),
], ids=["exact", "pruned-one-hour"])
def test_infer_resume_matches_straight_run(tmp_path, flags, stream):
    posts, _ = gen_args(tmp_path, n=80, seed=13, extra=stream)
    straight_dir = tmp_path / "straight"
    assert run_cli("infer", "--input", posts, "--out-dir", straight_dir,
                   "--seed", 13, "--top-k", 0, *flags) == 0

    ck = tmp_path / "ck.json"
    part_dir = tmp_path / "part"
    assert run_cli("infer", "--input", posts, "--out-dir", part_dir,
                   "--seed", 13, "--top-k", 0, *flags,
                   "--checkpoint", ck, "--checkpoint-every", 40) == 0
    # re-running from the mid-stream checkpoint must land on the same result
    resumed_dir = tmp_path / "resumed"
    mid = read_lines(ck)
    # final checkpoint was written at the end
    assert sum(len(line["posts"]) for line in mid[1:]) == 80
    # rebuild a mid-stream checkpoint by stopping at 40
    ck40 = tmp_path / "ck40.json"
    half_dir = tmp_path / "half"
    half_posts = tmp_path / "half.jsonl"
    lines = posts.read_text().splitlines()
    half_posts.write_text("\n".join(lines[:40]) + "\n")
    assert run_cli("infer", "--input", half_posts, "--out-dir", half_dir,
                   "--seed", 13, "--top-k", 0, *flags, "--checkpoint", ck40) == 0
    # with pruning, the mid-stream checkpoint holds retired patterns
    archives = [p["archive"] for p in read_lines(ck40)[1]["particles"]]
    assert all(archives) == bool(flags)
    assert run_cli("infer", "--input", posts, "--out-dir", resumed_dir,
                   "--seed", 13, "--top-k", 0, "--resume", ck40) == 0
    for name in ("assignments.csv", "patterns.csv"):
        assert (resumed_dir / name).read_bytes() == (straight_dir / name).read_bytes()


def test_infer_resume_appends_to_its_checkpoint(tmp_path):
    posts, _ = gen_args(tmp_path, n=100, seed=13)
    lines = posts.read_text().splitlines(keepends=True)

    def infer(n, out, *flags):
        head = tmp_path / f"posts{n}.jsonl"
        head.write_text("".join(lines[:n]))
        assert run_cli("infer", "--input", head, "--out-dir", tmp_path / out,
                       "--top-k", 0, *flags) == 0

    def same_outputs(a, b):
        return all((tmp_path / a / name).read_bytes() == (tmp_path / b / name).read_bytes()
                   for name in ("assignments.csv", "patterns.csv"))

    infer(80, "straight80", "--seed", 13)
    infer(100, "straight100", "--seed", 13)
    ck = tmp_path / "ck.json"
    infer(40, "part", "--seed", 13, "--checkpoint", ck)
    before = ck.read_bytes()
    infer(80, "resumed80", "--resume", ck, "--checkpoint", ck, "--checkpoint-every", 20)
    # saves at posts 60 and 80 were appended: the first save's bytes are kept
    assert ck.read_bytes().startswith(before)
    assert [len(line["posts"]) for line in read_lines(ck)[1:]] == [40, 20, 20]
    assert same_outputs("resumed80", "straight80")
    # a second resume folds the appended lines
    infer(100, "resumed100", "--resume", ck, "--checkpoint", ck)
    assert ck.read_bytes().split(b"\n")[0] == before.split(b"\n")[0]
    assert [len(line["posts"]) for line in read_lines(ck)[1:]] == [40, 20, 20, 20]
    assert same_outputs("resumed100", "straight100")


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


def test_infer_refuses_malformed_traces_before_reading_input(tmp_path, capsys, monkeypatch):
    posts, _ = gen_args(tmp_path, n=30, seed=6)
    monkeypatch.setattr("sdhawkes.cli.load_posts", lambda *a, **k: pytest.fail("read input"))
    capsys.readouterr()
    code = run_cli("infer", "--input", posts, "--out-dir", tmp_path / "run", "--top-k", 0,
                   "--particles", 2, "--traces", "0,x", "--checkpoint", tmp_path / "ck")
    assert code == 1
    assert "--traces 0,x" in capsys.readouterr().err
    assert not (tmp_path / "ck").exists()
    assert not (tmp_path / "run").exists()


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
    vocab = read_lines(ck)[0]["hyper"]["vocab_size"]

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

    # same count and vocabulary, but post 10 moved: the input is not the stream
    rows = [json.loads(line) for line in posts.read_text().splitlines()]
    rows[10]["x"] += 0.125
    edited = tmp_path / "edited.jsonl"
    edited.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert run_cli("infer", "--input", edited, "--out-dir", tmp_path / "d",
                   "--top-k", 0, "--resume", ck) == 1
    assert "input post 10 differs from post 10 of the checkpoint" in \
        capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("every, with_path, message", [
    (100, False, "--checkpoint-every needs --checkpoint"),
    (-7, True, "--checkpoint-every must be >= 1, got -7"),
    (0, True, "--checkpoint-every must be >= 1, got 0"),
], ids=["no-path", "negative", "zero"])
def test_infer_refuses_checkpoint_every_it_cannot_honour(tmp_path, capsys, every,
                                                         with_path, message):
    posts, _ = gen_args(tmp_path, n=40, seed=6)
    out_dir = tmp_path / "run"
    ck = tmp_path / "ck.json"
    capsys.readouterr()
    code = run_cli("infer", "--input", posts, "--out-dir", out_dir, "--seed", 6,
                   "--top-k", 0, "--particles", 2, "--checkpoint-every", every,
                   *(("--checkpoint", ck) if with_path else ()))
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out_dir.exists()
    assert not ck.exists()


def test_infer_resume_refuses_flags_that_differ_from_checkpoint(tmp_path, capsys):
    posts, _ = gen_args(tmp_path, n=60, seed=23)
    half = tmp_path / "half.jsonl"
    half.write_text("\n".join(posts.read_text().splitlines()[:30]) + "\n")
    ck = tmp_path / "ck.json"
    assert run_cli("infer", "--input", half, "--out-dir", tmp_path / "half",
                   "--seed", 23, "--top-k", 0, "--particles", 2,
                   "--checkpoint", ck) == 0

    def resume(out_name, *flags):
        return run_cli("infer", "--input", posts, "--out-dir", tmp_path / out_name,
                       "--top-k", 0, "--resume", ck, *flags)

    capsys.readouterr()
    assert resume("bad", "--particles", 16, "--spatial-off", "--lambda0", 99,
                  "--seed", 77) == 1
    err = capsys.readouterr().err
    for named in ("--lambda0 99.0 (checkpoint: 10.0)",
                  "--particles 16 (checkpoint: 2)",
                  "--seed 77 (checkpoint: 23)",
                  "--spatial-off True (checkpoint: False)"):
        assert named in err
    for flags, named in [
        (("--psi-tau", "1,7"), "--psi-tau (1.0, 7.0) (checkpoint: (1.0,))"),
        (("--prune",), "--prune True (checkpoint: False)"),
        (("--vocab-size", 3), "--vocab-size 3 (checkpoint: "),
    ]:
        assert resume("bad", *flags) == 1
        assert named in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()

    # flags equal to the checkpoint's values are accepted
    assert resume("same", "--particles", 2, "--seed", 23, "--lambda0", 10,
                  "--psi-tau", "1") == 0
    assert resume("plain") == 0
    assert (tmp_path / "same" / "assignments.csv").read_text() == \
        (tmp_path / "plain" / "assignments.csv").read_text()


def test_trials_below_one_refused_before_any_output(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    capsys.readouterr()
    assert run_cli("evaluate", "sweep-sigma0", "--sigma0-grid", "0.05",
                   "--trials", 0, "--n", 60, "--particles", 2, "--out", out) == 1
    captured = capsys.readouterr()
    assert "--trials must be >= 1, got 0" in captured.err
    assert "nmi=" not in captured.out
    assert not out.exists()

    posts, _ = gen_args(tmp_path, n=60, seed=17)
    out_dir = tmp_path / "pred"
    assert run_cli("predict", "--input", posts, "--out-dir", out_dir,
                   "--trials", 0, "--top-k", 0, "--particles", 2) == 1
    assert "n_trials must be >= 1, got 0" in capsys.readouterr().err
    assert not out_dir.exists()


def delta_alpha_buckets(path):
    with open(path, newline="") as fh:
        return {r["bucket"]: (int(r["count"]), float(r["median_delta_alpha"]))
                for r in csv.DictReader(fh)}


def test_delta_alpha_aligns_truth_labels_with_kept_posts(tmp_path):
    model = ("--alpha-time", 2.0, "--beta-time", 2.0)
    posts_path, truth = gen_args(tmp_path, n=200, seed=19, extra=model)
    rows = [json.loads(line) for line in posts_path.read_text().splitlines()]
    rows[5]["text"] = ""  # preprocessing drops this post
    posts_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "da.csv"
    assert run_cli("evaluate", "delta-alpha", "--input", posts_path, "--truth",
                   truth, "--particles", 2, "--seed", 19, *model, "--out", out) == 0

    # the same run, each kept post labelled from its own row
    prep = preprocess(load_posts(posts_path)[0], top_k=0)
    kept = sorted((r for r in rows if r["text"]), key=lambda r: r["t"])
    assert len(kept) == len(prep.posts) == 199
    for post, row in zip(prep.posts, kept):
        assert (post.t, post.x, post.y) == (row["t"], row["x"], row["y"])
        post.label_true = row["label"]
    hyper = Hyperparams(n_particles=2, alpha_time=2.0, beta_time=2.0,
                        vocab_size=prep.vocab_size)
    system = ParticleSystem(hyper, EngineConfig(seed=19, prune_threshold=1e-12))
    records = alpha_precision_records(system.run(prep.posts).map_estimate(),
                                      prep.posts, load_ground_truth(truth))
    got = delta_alpha_buckets(out)
    for bucket, (lo, hi) in {"2-5": (2, 5), "6-20": (6, 20),
                             "21-100": (21, 100), ">100": (101, 10 ** 9)}.items():
        deltas = [d for size, d in records if lo <= size <= hi]
        count, median = got[bucket]
        assert count == len(deltas)
        if deltas:
            assert median == float(np.median(deltas))


def test_delta_alpha_refuses_label_count_mismatch(tmp_path, capsys):
    posts_path, truth = gen_args(tmp_path, n=120, seed=19)
    rows = [json.loads(line) for line in posts_path.read_text().splitlines()]
    rows[7]["x"] = None  # ingestion skips this row; the label reader does not
    posts_path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    capsys.readouterr()
    assert run_cli("evaluate", "delta-alpha", "--input", posts_path, "--truth",
                   truth, "--particles", 2) == 1
    assert "120 labelled rows but 119 valid posts" in capsys.readouterr().err


def _without(key):
    return lambda row: json.dumps({k: v for k, v in row.items() if k != key})


@pytest.mark.parametrize("metric", ["nmi", "delta-alpha"])
@pytest.mark.parametrize("edit, named", [
    (_without("label"), "label must be an integer, got None"),
    (lambda row: json.dumps({**row, "label": "two"}), "label must be an integer, got 'two'"),
    (_without("t"), "t must be a number, got None"),
    (lambda row: "[1, 2]", "not a JSON object"),
    (lambda row: json.dumps(row)[:-1], "not a JSON object"),
], ids=["missing", "not-integer", "no-t", "list", "truncated"])
def test_evaluate_names_truth_row_without_integer_label(tmp_path, capsys,
                                                        metric, edit, named):
    posts_path, truth = gen_args(tmp_path, n=40, seed=19)
    lines = posts_path.read_text().splitlines()
    lines[3] = edit(json.loads(lines[3]))
    posts_path.write_text("".join(line + "\n" for line in lines))
    assignments = tmp_path / "assignments.csv"
    assignments.write_text("post_index,label\n"
                           + "".join(f"{i},0\n" for i in range(40)))
    flags = (("--assignments", assignments, "--truth", posts_path)
             if metric == "nmi" else ("--input", posts_path, "--truth", truth))
    capsys.readouterr()
    assert run_cli("evaluate", metric, *flags, "--particles", 2) == 1
    assert f"{posts_path} line 4: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (("nmi", "--truth", "p.jsonl"), "evaluate nmi needs --assignments"),
    (("nmi",), "evaluate nmi needs --assignments and --truth"),
    (("delta-alpha", "--input", "p.jsonl"), "evaluate delta-alpha needs --truth"),
    (("delta-alpha", "--truth", "t.csv"), "evaluate delta-alpha needs --input"),
])
def test_evaluate_names_missing_input_flags(tmp_path, capsys, argv, named):
    # the config file does not exist: the refusal comes before any file is read
    capsys.readouterr()
    assert run_cli("evaluate", *argv, "--config", tmp_path / "absent.json") == 1
    assert f"error: {named}\n" in capsys.readouterr().err


def test_gof_refuses_negative_tune_iters_before_any_work(tmp_path, capsys):
    out = tmp_path / "gof.csv"
    capsys.readouterr()
    assert run_cli("gof", "--input", tmp_path / "absent.jsonl", "--with-dhp",
                   "--tune-iters", -3, "--out", out) == 1
    assert "--tune-iters must be >= 0, got -3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("checkpoint, named", [
    ("ckdir", "--checkpoint {tmp}/ckdir: is a directory"),
    ("missing/ck.json", "--checkpoint {tmp}/missing/ck.json: no directory {tmp}/missing"),
], ids=["directory", "missing-parent"])
def test_infer_refuses_unwritable_checkpoint_before_any_post(tmp_path, capsys, monkeypatch,
                                                             checkpoint, named):
    posts, _ = gen_args(tmp_path, n=30, seed=6)
    (tmp_path / "ckdir").mkdir()
    monkeypatch.setattr(ParticleSystem, "step", lambda *a, **k: pytest.fail("stepped"))
    capsys.readouterr()
    code = run_cli("infer", "--input", posts, "--out-dir", tmp_path / "run",
                   "--top-k", 0, "--particles", 2, "--checkpoint", tmp_path / checkpoint)
    assert code == 1
    assert named.format(tmp=tmp_path) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_infer_resume_from_a_directory_names_it(tmp_path, capsys):
    posts, _ = gen_args(tmp_path, n=30, seed=6)
    (tmp_path / "ckdir").mkdir()
    capsys.readouterr()
    code = run_cli("infer", "--input", posts, "--out-dir", tmp_path / "run",
                   "--resume", tmp_path / "ckdir")
    assert code == 1
    assert str(tmp_path / "ckdir") in capsys.readouterr().err


def test_infer_checkpoint_cadence(tmp_path, monkeypatch):
    saved_at = []
    save = ParticleSystem.save_checkpoint

    def recording_save(self, path):
        saved_at.append(self.n)
        save(self, path)

    monkeypatch.setattr(ParticleSystem, "save_checkpoint", recording_save)
    # every 40th post, then the final save unless the last post was saved
    for n_posts, saves in ((100, [40, 80, 100]), (80, [40, 80])):
        posts, _ = gen_args(tmp_path / str(n_posts), n=n_posts, seed=6)
        saved_at.clear()
        assert run_cli("infer", "--input", posts, "--out-dir", tmp_path / "run",
                       "--seed", 6, "--top-k", 0, "--particles", 2,
                       "--checkpoint", tmp_path / "ck.json",
                       "--checkpoint-every", 40) == 0
        assert saved_at == saves
