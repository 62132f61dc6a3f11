"""Command-line entry points.

Subcommands: generate, infer, evaluate, predict, gof. Option precedence is
CLI flag > --config JSON file > built-in defaults (the synthetic-experiment
defaults). Exit codes: 0 success, 1 validation or file-system error (naming
the path), 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .dataio import (
    export_results,
    load_ground_truth,
    load_posts,
    load_synthetic_labels,
    preprocess,
    read_assignments,
    write_csv,
    write_synthetic,
)
from .evaluation import (
    GOF_BURN_IN,
    GOF_WINDOW,
    GmmStreamPredictor,
    SmcPredictor,
    alpha_precision_records,
    dataset_spatial_scale,
    location_prediction_protocol,
    nmi,
    perplexity,
    rmse_selected,
    spatial_gof,
    tune_dhp_lambda0,
)
from .generate import SynthConfig, generate
from .smc import EngineConfig, ParticleSystem
from .types import Hyperparams

DEFAULTS = {
    "lambda0": 10.0,
    "theta0": 1.0,
    "beta_space": 0.01,
    "alpha_time": 0.1,
    "beta_time": 0.2,
    "psi_tau": "1",
    "vocab_size": 15,
    "particles": 4,
    "kappa_thresh": 0.9,
    "n_words": 7,
    "sigma0": 0.1,
    "top_k": 200,
    "seed": 0,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors are validation errors: exit 1
        self.print_usage(sys.stderr)
        raise SystemExit(_fail(message, 1))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _parse_psi(text) -> tuple[float, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    return tuple(float(v) for v in str(text).split(","))


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="JSON file with option defaults")
    parser.add_argument("--seed", type=int, default=None)
    for key in ("lambda0", "theta0", "beta-space", "alpha-time", "beta-time",
                "kappa-thresh"):
        parser.add_argument(f"--{key}", type=float, default=None)
    parser.add_argument("--psi-tau", type=str, default=None,
                        help="comma-separated time constants (days)")
    parser.add_argument("--vocab-size", type=int, default=None)
    parser.add_argument("--particles", type=int, default=None)


def _resolve(args: argparse.Namespace) -> dict:
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            file_conf = json.load(fh)
        unknown = set(file_conf) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_conf)
    for key in merged:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    merged["psi_tau"] = _parse_psi(merged["psi_tau"])
    return merged


def _hyper_from(conf: dict, vocab_size: int | None = None) -> Hyperparams:
    hyper = Hyperparams(
        lambda0=conf["lambda0"],
        theta0=conf["theta0"],
        beta_space=conf["beta_space"],
        alpha_time=conf["alpha_time"],
        beta_time=conf["beta_time"],
        psi_tau=conf["psi_tau"],
        n_particles=conf["particles"],
        kappa_thresh=conf["kappa_thresh"],
        vocab_size=vocab_size if vocab_size is not None else conf["vocab_size"],
    )
    hyper.validate()
    return hyper


def _load_stream(path: Path, top_k: int):
    raws, issues = load_posts(path)
    for issue in issues:
        print(f"warning: {path}: {issue}", file=sys.stderr)
    return preprocess(raws, top_k=top_k)


# ----------------------------------------------------------------------
# subcommands

def cmd_generate(args) -> int:
    conf = _resolve(args)
    hyper = _hyper_from(conf)
    sigma0 = None if args.sigma0_prior else conf["sigma0"]
    cfg = SynthConfig(hyper=hyper, n_posts=args.n, n_words=conf["n_words"],
                      sigma0=sigma0, alpha0=args.alpha0,
                      unit_square=not args.no_unit_square, seed=conf["seed"])
    synth = generate(cfg)
    write_synthetic(synth, args.out, args.truth)
    print(f"wrote {len(synth.posts)} posts to {args.out}; "
          f"{len(synth.params)} patterns to {args.truth}")
    return 0


def _refuse_resume_overrides(args, system: ParticleSystem) -> None:
    """Refuse a model or engine flag whose value differs from the
    checkpoint's: a resumed run continues with the checkpoint's settings."""
    config = system.config
    saved = {**asdict(system.hyper), "particles": system.hyper.n_particles,
             "seed": config.seed, "spatial_off": not config.spatial,
             "prune": config.prune_threshold > 0.0}
    differ = []
    for key, value in saved.items():
        given = getattr(args, key, None)
        if given is None or given is False:  # not on the command line
            continue
        if key == "psi_tau":
            given = _parse_psi(given)
        if given != value:
            differ.append(f"--{key.replace('_', '-')} {given} (checkpoint: {value})")
    if differ:
        raise ValueError("a resumed run keeps the checkpoint's settings, but "
                         + ", ".join(differ))


def cmd_infer(args) -> int:
    conf = _resolve(args)
    try:
        trace_labels = [int(v) for v in args.traces.split(",")] if args.traces else ()
    except ValueError:
        raise ValueError(f"--traces {args.traces}: not comma-separated integer labels") from None
    if args.checkpoint_every is not None:
        if args.checkpoint_every < 1:
            raise ValueError(f"--checkpoint-every must be >= 1, "
                             f"got {args.checkpoint_every}")
        if args.checkpoint is None:
            raise ValueError("--checkpoint-every needs --checkpoint")
    ck = args.checkpoint
    if ck is not None and ck.is_dir():
        raise ValueError(f"--checkpoint {ck}: is a directory")
    if ck is not None and not ck.parent.is_dir():
        raise ValueError(f"--checkpoint {ck}: no directory {ck.parent}")
    if args.resume:
        system = ParticleSystem.load_checkpoint(args.resume)
        _refuse_resume_overrides(args, system)
        data = _load_stream(args.input, conf["top_k"])
        if len(data.posts) < system.n:
            raise ValueError(f"input has {len(data.posts)} posts, fewer than the "
                             f"{system.n} the checkpoint has processed")
        if data.vocab_size != system.hyper.vocab_size:
            raise ValueError(f"input vocabulary has {data.vocab_size} words, the "
                             f"checkpoint's has {system.hyper.vocab_size}")
        # catches a different --top-k, vocabulary or projection, or an edited row
        for i, (post, (saved, _)) in enumerate(zip(data.posts, system.posts())):
            if (post.t, post.words, post.x, post.y) != (saved.t, saved.words, saved.x, saved.y):
                raise ValueError(f"input post {i} differs from post {i} of the checkpoint")
        posts = data.posts[system.n:]
    else:
        data = _load_stream(args.input, conf["top_k"])
        posts = data.posts
        hyper = _hyper_from(conf, vocab_size=data.vocab_size)
        engine = EngineConfig(
            spatial=not args.spatial_off,
            seed=conf["seed"],
            prune_threshold=1e-12 if args.prune else 0.0,
        )
        system = ParticleSystem(hyper, engine)
    saved_at = None
    for post in posts:
        system.step(post)
        if args.checkpoint_every and system.n % args.checkpoint_every == 0:
            system.save_checkpoint(args.checkpoint)
            saved_at = system.n
    if args.checkpoint and saved_at != system.n:
        system.save_checkpoint(args.checkpoint)
    result = system.map_estimate()
    paths = export_results(result, args.out_dir, projection=data.projection,
                           vocab=data.vocab, trace_labels=trace_labels,
                           times=[p.t for p in data.posts])
    print(f"{len(result.assignments)} posts in {len(result.summaries)} "
          f"patterns; results under {args.out_dir}")
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return 0


def cmd_evaluate(args) -> int:
    inputs = {"nmi": ("assignments", "truth"), "delta-alpha": ("input", "truth")}
    missing = [f"--{name}" for name in inputs.get(args.metric, ())
               if getattr(args, name) is None]
    if missing:
        raise ValueError(f"evaluate {args.metric} needs {' and '.join(missing)}")
    conf = _resolve(args)
    if args.metric == "nmi":
        pred = read_assignments(args.assignments)
        truth = load_synthetic_labels(args.truth)
        if len(pred) != len(truth):
            raise ValueError(
                f"{len(pred)} assignments vs {len(truth)} true labels")
        print(f"nmi {nmi(truth, pred):.6f}")
        return 0

    if args.metric == "sweep-sigma0":
        if args.trials < 1:
            raise ValueError(f"--trials must be >= 1, got {args.trials}")
        grid = [float(v) for v in args.sigma0_grid.split(",")]
        rows = []
        for sigma0 in grid:
            for model in (["sdhp", "dhp"] if args.with_dhp else ["sdhp"]):
                scores = []
                for trial in range(args.trials):
                    seed = conf["seed"] + 1000 * trial
                    hyper = _hyper_from(conf)
                    if args.beta_space_sigma0:
                        hyper = replace(hyper, beta_space=sigma0 * sigma0)
                    synth = generate(SynthConfig(
                        hyper=hyper, n_posts=args.n, n_words=conf["n_words"],
                        sigma0=sigma0, seed=seed))
                    engine = EngineConfig(seed=seed, spatial=(model == "sdhp"),
                                          prune_threshold=1e-12)
                    system = ParticleSystem(hyper, engine)
                    system.run(synth.posts)
                    result = system.map_estimate()
                    scores.append(nmi([p.label_true for p in synth.posts],
                                      result.assignments))
                mean = float(np.mean(scores))
                stderr = float(np.std(scores, ddof=1) / math.sqrt(len(scores))) \
                    if len(scores) > 1 else 0.0
                rows.append((sigma0, model, mean, stderr, len(scores)))
                print(f"sigma0={sigma0} model={model} "
                      f"nmi={mean:.4f} stderr={stderr:.4f}")
        if args.out:
            write_csv(args.out, ["sigma0", "model", "mean_nmi", "stderr",
                                 "trials"], rows)
        return 0

    # delta-alpha
    data = _load_stream(args.input, 0)
    truth_params = load_ground_truth(args.truth)
    truth_labels = load_synthetic_labels(args.input)
    n_rows = len(data.posts) + data.n_dropped_empty
    if len(truth_labels) != n_rows:
        raise ValueError(f"{args.input} has {len(truth_labels)} labelled "
                         f"rows but {n_rows} valid posts")
    hyper = _hyper_from(conf, vocab_size=data.vocab_size)
    system = ParticleSystem(hyper, EngineConfig(seed=conf["seed"],
                                                prune_threshold=1e-12))
    system.run(data.posts)
    result = system.map_estimate()
    # preprocessing drops posts left without words: label by source row
    for post, i in zip(data.posts, data.source_indices):
        post.label_true = truth_labels[i]
    records = alpha_precision_records(result, data.posts, truth_params)
    buckets = [(2, 5), (6, 20), (21, 100), (101, 10 ** 9)]
    rows = []
    for lo, hi in buckets:
        deltas = [d for size, d in records if lo <= size <= hi]
        med = float(np.median(deltas)) if deltas else float("nan")
        label = f"{lo}-{hi}" if hi < 10 ** 9 else f">{lo - 1}"
        rows.append((label, len(deltas), med))
    print("bucket,count,median_delta_alpha")
    for label, count, med in rows:
        print(f"{label},{count},{med:.4f}")
    if args.out:
        write_csv(args.out, ["bucket", "count", "median_delta_alpha"], rows)
    return 0


def cmd_predict(args) -> int:
    conf = _resolve(args)
    data = _load_stream(args.input, conf["top_k"])
    hyper = _hyper_from(conf, vocab_size=data.vocab_size)
    engine = EngineConfig(seed=conf["seed"], spatial=not args.spatial_off,
                          prune_threshold=1e-12)
    records = location_prediction_protocol(
        data.posts, hyper, engine, n_trials=args.trials, seed=conf["seed"])
    scale = dataset_spatial_scale(data.posts)
    metrics = []
    for criterion in ("loose", "tight"):
        value = rmse_selected(records, criterion, scale, seed=conf["seed"])
        text = "insufficient" if value is None else f"{value:.6f}"
        metrics.append([criterion, text])
        print(f"{criterion}: {text}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "prediction_records.csv",
              ["index", "pred_x", "pred_y", "true_x", "true_y", "pattern_size",
               "sigma", "trial"],
              ([r.index, r.predicted[0], r.predicted[1], r.actual[0],
                r.actual[1], r.pattern_size, r.sigma, r.trial] for r in records))
    write_csv(out_dir / "prediction_metrics.csv",
              ["criterion", "normalized_rmse"], metrics)
    return 0


def cmd_gof(args) -> int:
    if args.tune_iters < 0:
        raise ValueError(f"--tune-iters must be >= 0, got {args.tune_iters}")
    conf = _resolve(args)
    data = _load_stream(args.input, conf["top_k"])
    hyper = _hyper_from(conf, vocab_size=data.vocab_size)
    engine = EngineConfig(seed=conf["seed"], prune_threshold=1e-12)
    rows = []

    model = SmcPredictor(hyper, engine)
    rows.append(("spatial_gof", "sdhp",
                 spatial_gof(data.posts, model, args.burn_in, args.window)))
    n_patterns = model.system.particles[
        int(np.argmax(model.system.weights))].S
    model = SmcPredictor(hyper, engine)
    rows.append(("perplexity", "sdhp",
                 perplexity(data.posts, model, args.burn_in, args.window)))
    rows.append(("spatial_gof", "uniform", 0.0))
    rows.append(("perplexity", "uniform", float(hyper.vocab_size)))

    if args.with_gmm:
        # component schedule: the pattern count of the heaviest particle
        # after each post
        counter = ParticleSystem(hyper, engine)
        schedule = []
        for post in data.posts[:args.burn_in + args.window]:
            counter.step(post)
            schedule.append(counter.particles[int(np.argmax(counter.weights))].S)
        gmm = GmmStreamPredictor(schedule, 2.0 * hyper.beta_space,
                                 seed=conf["seed"])
        rows.append(("spatial_gof", "gmm",
                     spatial_gof(data.posts, gmm, args.burn_in, args.window)))
    if args.with_dhp:
        lam = tune_dhp_lambda0(data.posts[:args.burn_in], hyper, n_patterns,
                               engine, iters=args.tune_iters)
        dhp = SmcPredictor(replace(hyper, lambda0=lam),
                           replace(engine, spatial=False))
        rows.append(("perplexity", f"dhp(lambda0={lam:.4g})",
                     perplexity(data.posts, dhp, args.burn_in, args.window)))

    for name, model_name, value in rows:
        print(f"{name} {model_name} {value:.6f}")
    if args.out:
        write_csv(args.out, ["metric", "model", "value"], rows)
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sdhawkes",
                     description="spatiotemporal pattern mining on "
                                 "geolocated text streams")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[], help="sample a synthetic stream")
    _add_common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--truth", type=Path, required=True)
    p.add_argument("--n-words", type=int, default=None)
    p.add_argument("--sigma0", type=float, default=None)
    p.add_argument("--sigma0-prior", action="store_true",
                   help="draw each pattern's scale from the prior")
    p.add_argument("--alpha0", type=float, default=None,
                   help="fix every pattern's self-excitation")
    p.add_argument("--no-unit-square", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("infer", help="run inference over a stream")
    _add_common(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--spatial-off", action="store_true",
                   help="content+time baseline")
    p.add_argument("--prune", action="store_true")
    p.add_argument("--checkpoint", type=Path, default=None)
    p.add_argument("--checkpoint-every", type=int, default=None)
    p.add_argument("--resume", type=Path, default=None)
    p.add_argument("--traces", type=str, default=None,
                   help="comma-separated pattern labels to trace")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="clustering metrics")
    _add_common(p)
    p.add_argument("metric", choices=["nmi", "sweep-sigma0", "delta-alpha"])
    p.add_argument("--assignments", type=Path)
    p.add_argument("--truth", type=Path)
    p.add_argument("--input", type=Path)
    p.add_argument("--sigma0-grid", type=str, default="0.01,0.02,0.05,0.1")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--n", type=int, default=500)
    p.add_argument("--n-words", type=int, default=None)
    p.add_argument("--with-dhp", action="store_true")
    p.add_argument("--beta-space-sigma0", action="store_true",
                   help="set beta_space = sigma0^2 per grid point")
    p.add_argument("--out", type=Path, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="hide-and-predict location experiment")
    _add_common(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--spatial-off", action="store_true")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gof", help="goodness of fit and perplexity")
    _add_common(p)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--top-k", type=int, default=None)
    p.add_argument("--burn-in", type=int, default=GOF_BURN_IN)
    p.add_argument("--window", type=int, default=GOF_WINDOW)
    p.add_argument("--with-gmm", action="store_true")
    p.add_argument("--with-dhp", action="store_true")
    p.add_argument("--tune-iters", type=int, default=8)
    p.set_defaults(func=cmd_gof)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # OSError names its path
        return _fail(str(exc), 1)
    except Exception as exc:  # runtime failure
        return _fail(f"{type(exc).__name__}: {exc}", 2)


if __name__ == "__main__":
    sys.exit(main())
