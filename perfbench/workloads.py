"""The benchmark's workloads: fixed synthetic streams, set-up, one job each,
and the output checks that decide whether an operation failed.

Every workload reads a stream generated from a fixed generator seed (the
settings and seeds of the acceptance suite's criterion streams, shorter for
``infer-exact`` and ``gof``), so that every run measures the same work. The
workload seed given on the command line seeds what the package samples: the
particle filter's generators, and for ``predict`` the hidden sets and
per-trial engine seeds. ``gof``'s content+time comparison keeps the
stream's seed (see ``gof_job``).

An operation is a post stepped, a checkpoint round-trip, an ingest, a
resume, or a protocol call (a result export, a prediction protocol, a
goodness-of-fit scan). It fails if it raises, leaves a non-finite log
weight, or fails an output check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from sdhawkes import dataio, evaluation
from sdhawkes.generate import SynthConfig, SynthResult, generate
from sdhawkes.smc import EngineConfig, ParticleSystem
from sdhawkes.types import Hyperparams

from tracing import StepRecorder, Tracer, span_maker

now = time.perf_counter_ns


@dataclass(frozen=True)
class Spec:
    """One workload: its stream, its engine settings and its job."""

    name: str
    kind: str  # "infer", "predict" or "gof"
    gen_hyper: Hyperparams
    n_posts: int
    n_words: int
    sigma0: float
    alpha0: float | None
    stream_seed: int
    psi_tau: tuple[float, ...]
    n_particles: int
    prune: bool
    checkpoint_every: int | None = None
    trials: int = 0
    # offered rate (posts/s) of the open-loop lateness replay: about half
    # the seed code's posts_per_s on infer-pruned, where checkpoint stalls
    # set the tail; elsewhere about a seventh to a quarter, low enough that
    # a slower host does not turn the tail into a growing backlog (seed code
    # on a 2-core Xeon VM, Python 3.11.7)
    rate: float = 1.0
    why: str = ""


def _hyper(**kw) -> Hyperparams:
    base = dict(lambda0=10.0, theta0=1.0, beta_space=0.01, alpha_time=0.1,
                beta_time=0.2, psi_tau=(1.0,), vocab_size=15, n_particles=4)
    base.update(kw)
    return Hyperparams(**base)


_PREDICT_HYPER = Hyperparams(lambda0=1.0, theta0=0.05, beta_space=4e-4,
                             alpha_time=9.25, beta_time=2.5, psi_tau=(0.25,),
                             vocab_size=50, n_particles=4)
_GOF_HYPER = Hyperparams(lambda0=2.0, theta0=0.5, beta_space=1e-3,
                         alpha_time=4.0, beta_time=2.0, psi_tau=(0.5,),
                         vocab_size=15, n_particles=4)

SPECS = {
    "infer-pruned": Spec(
        name="infer-pruned", kind="infer",
        gen_hyper=_hyper(lambda0=5.0, psi_tau=(1 / 24, 1 / 4, 1.0), vocab_size=30),
        n_posts=3000, n_words=3, sigma0=0.05, alpha0=0.8, stream_seed=0,
        psi_tau=(1 / 24, 1 / 4, 1.0, 7.0, 30.0), n_particles=4, prune=True,
        checkpoint_every=1000, rate=400.0,
        why="infer --prune with checkpoints on a calendar tau grid: kernel "
            "refit, copy-on-write after resampling and checkpoint writes"),
    "infer-exact": Spec(
        name="infer-exact", kind="infer",
        gen_hyper=_hyper(lambda0=5.0, psi_tau=(0.25,), vocab_size=30),
        n_posts=600, n_words=3, sigma0=0.05, alpha0=0.8, stream_seed=0,
        psi_tau=(0.25,), n_particles=2, prune=False, rate=80.0,
        why="exact mode on the criterion-10 settings at 600 posts: ~530 live, "
            "nearly all singleton patterns per particle, so per-pair scoring "
            "is ~90% of a step"),
    "predict": Spec(
        name="predict", kind="predict", gen_hyper=_PREDICT_HYPER,
        n_posts=1200, n_words=8, sigma0=0.02, alpha0=3.7, stream_seed=42,
        psi_tau=(0.25,), n_particles=4, prune=True, trials=10, rate=400.0,
        why="hide-and-predict on the criterion-11 stream: ~7 live patterns, "
            "so per-post fixed costs, construction and map_estimate dominate"),
    "gof": Spec(
        name="gof", kind="gof", gen_hyper=_GOF_HYPER,
        n_posts=1250, n_words=5, sigma0=0.03, alpha0=None, stream_seed=5,
        psi_tau=(0.5,), n_particles=4, prune=True, rate=200.0,
        why="spatial gof, perplexity and the tuned content+time comparison on "
            "1,250 posts: predictive_logdensity reads between steps and the "
            "spatial-off path"),
}

# the gof scans: half the package's default burn-in and window (500 and
# 2,000), so that a run repeats the job several times
GOF_BURN_IN = 250
GOF_WINDOW = 1000
GOF_TUNE_ITERS = 8
# a hide-and-predict replay in the traced run uses this many leading posts
REPLAY_PREFIX = 300


class Ops:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(f"{what}: {p}" for p in problems[:5])
        return not problems

    def steps(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.errors.append(f"{what}: {failed} steps left a non-finite log weight")


@dataclass
class Data:
    """A set-up workload: the stream as the package ingested it."""

    spec: Spec
    seed: int
    work: Path
    synth: SynthResult
    prep: dataio.PreprocessResult
    hyper: Hyperparams
    config: EngineConfig
    true_labels: list[int]

    @property
    def posts(self):
        return self.prep.posts


@dataclass
class Job:
    """What one job produced and how long its parts took."""

    posts: int = 0
    stream_ns: int = 0
    job_ns: int = 0
    check_ns: int = 0  # output checks, checkpoint reloads and the resume
    service_ns: list[int] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)
    fingerprint: tuple = ()
    final_system: ParticleSystem | None = None
    result: object = None
    recorder: StepRecorder | None = None


def setup(spec: Spec, seed: int, work: Path, tracer: Tracer | None, ops: Ops) -> Data:
    """Generate the stream, write it as JSONL, ingest it and construct the
    engine: everything before the first post is stepped."""
    work.mkdir(parents=True, exist_ok=True)
    posts_path = work / "posts.jsonl"
    truth_path = work / "truth.csv"
    span = span_maker(tracer)
    with span("generate.generate"):
        synth = generate(SynthConfig(hyper=spec.gen_hyper, n_posts=spec.n_posts,
                                     n_words=spec.n_words, sigma0=spec.sigma0,
                                     alpha0=spec.alpha0, seed=spec.stream_seed))
    with span("dataio.write_synthetic"):
        dataio.write_synthetic(synth, posts_path, truth_path)
    with span("dataio.ingest"):
        raws, issues = dataio.load_posts(posts_path)
        prep = dataio.preprocess(raws, top_k=0)
    with span("smc.construct"):
        hyper = replace(spec.gen_hyper, psi_tau=spec.psi_tau,
                        n_particles=spec.n_particles, vocab_size=prep.vocab_size)
        config = EngineConfig(seed=seed, prune_threshold=1e-12 if spec.prune else 0.0)
        ParticleSystem(hyper, config)
    problems = [f"load_posts issue {i}" for i in issues]
    if len(prep.posts) != len(synth.posts):
        problems.append(f"{len(prep.posts)} posts ingested of {len(synth.posts)}")
    for i, (got, want) in enumerate(zip(prep.posts, synth.posts)):
        if (got.t, got.x, got.y, len(got.words)) != (want.t, want.x, want.y, len(want.words)):
            problems.append(f"post {i} changed in the JSONL round trip")
            break
    ops.check("ingest", problems)
    return Data(spec=spec, seed=seed, work=work, synth=synth, prep=prep,
                hyper=hyper, config=config,
                true_labels=[p.label_true for p in synth.posts])


# ----------------------------------------------------------------------
# output checks

def system_problems(system: ParticleSystem, n_posts: int) -> list[str]:
    """One assignment per post with labels below S, finite log weights and
    weights that sum to 1."""
    problems = []
    if system.n != n_posts:
        problems.append(f"system stepped {system.n} posts, expected {n_posts}")
    for i, particle in enumerate(system.particles):
        labels = particle.assignments()
        if len(labels) != n_posts:
            problems.append(f"particle {i}: {len(labels)} assignments for {n_posts} posts")
        elif labels and not (0 <= min(labels) and max(labels) < particle.S):
            problems.append(f"particle {i}: label outside [0, S={particle.S})")
    if not np.all(np.isfinite(system.log_weights)):
        problems.append("non-finite log weight")
    w = np.asarray(system.weights)
    if not np.all(np.isfinite(w)) or abs(float(w.sum()) - 1.0) > 1e-9:
        problems.append(f"weights sum to {float(w.sum())!r}")
    return problems


def result_problems(result, n_posts: int) -> list[str]:
    problems = []
    if len(result.assignments) != n_posts:
        problems.append(f"{len(result.assignments)} MAP assignments for {n_posts} posts")
    elif min(result.assignments) < 0:
        problems.append("negative MAP label")
    w = np.asarray(result.weights)
    if not np.all(np.isfinite(w)) or abs(float(w.sum()) - 1.0) > 1e-9:
        problems.append(f"result weights sum to {float(w.sum())!r}")
    return problems


def finite_problems(values: dict[str, float]) -> list[str]:
    return [f"{k} = {v!r} is not finite" for k, v in values.items()
            if v is None or not math.isfinite(v)]


def same_state(a: ParticleSystem, b: ParticleSystem) -> list[str]:
    """Bit-for-bit equality of the parts of two systems a resume must keep."""
    problems = []
    if a.n != b.n or a.t_last != b.t_last or a.n_resamples != b.n_resamples:
        problems.append(f"n/t_last/n_resamples differ: {a.n} vs {b.n}")
    if not np.array_equal(a.log_weights, b.log_weights):
        problems.append("log weights differ")
    if len(a.particles) != len(b.particles):
        problems.append("particle counts differ")
    for i, (pa, pb) in enumerate(zip(a.particles, b.particles)):
        if pa.S != pb.S or pa.assignments() != pb.assignments():
            problems.append(f"particle {i}: assignments differ")
        if sorted(pa.patterns) != sorted(pb.patterns):
            problems.append(f"particle {i}: live pattern labels differ")
    return problems


def checkpoint_roundtrip(system: ParticleSystem, path: Path, ops: Ops,
                         tracer: Tracer | None):
    """Reload a checkpoint just written and compare it with the live system.
    Returns the loaded system, or None when the round trip failed."""
    try:
        t0 = now()
        loaded = ParticleSystem.load_checkpoint(path)
        t1 = now()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ops.check("checkpoint", [f"load_checkpoint raised {exc!r}"])
        return None
    if tracer is not None:
        sid = tracer.record("smc.checkpoint_load", t0, t1)
        tracer.count("checkpoint_bytes", path.stat().st_size, sid)
    ok = ops.check(f"checkpoint at post {system.n}", same_state(loaded, system))
    return loaded if ok else None


# ----------------------------------------------------------------------
# jobs

def infer_job(data: Data, rec: StepRecorder, tracer: Tracer | None, ops: Ops,
              resume: bool) -> Job:
    """``sdhawkes infer``: the stream (with checkpoint writes), then
    map_estimate and export_results. With ``resume`` the job also restarts
    from its last mid-stream checkpoint and checks the tail bit for bit."""
    spec = data.spec
    posts = data.posts
    n = len(posts)
    k = spec.checkpoint_every
    ck_path = data.work / "checkpoint.json"
    resume_at = (((n - 1) // k) * k) if k else n - n // 10
    span = span_maker(tracer)
    system = ParticleSystem(data.hyper, data.config)
    resumed = None
    paused = 0
    t_start = now()
    with span("stream"):
        for post in posts:
            rec.step(system, post)
            if k and system.n % k == 0:
                c0 = now()
                system.save_checkpoint(ck_path)
                c1 = now()
                rec.add_to_last(c1 - c0)
                if tracer is not None:
                    tracer.end(rec.last_span, c1)
                    tracer.record("smc.checkpoint_save", c0, c1, parent=rec.last_span)
                loaded = checkpoint_roundtrip(system, ck_path, ops, tracer)
                if system.n == resume_at:
                    resumed = loaded
                paused += now() - c1
            elif resume and not k and system.n == resume_at:
                p0 = now()
                system.save_checkpoint(ck_path)
                resumed = checkpoint_roundtrip(system, ck_path, ops, tracer)
                paused += now() - p0
    t_stream = now()
    with span("smc.map_estimate"):
        result = system.map_estimate()
    out_dir = data.work / "export"
    with span("dataio.export"):
        dataio.export_results(result, out_dir, vocab=data.prep.vocab)
    t_end = now()
    ops.steps(rec.steps, rec.nonfinite, "stream")
    problems = system_problems(system, n) + result_problems(result, n)
    if dataio.read_assignments(out_dir / "assignments.csv") != result.assignments:
        problems.append("exported assignments differ from the MAP labelling")
    if not any(p.assignments() == result.assignments for p in system.particles):
        problems.append("MAP labelling is no particle's history")
    records = evaluation.alpha_precision_records(result, data.synth.posts,
                                                 data.synth.params)
    quality = {
        "nmi": evaluation.nmi(data.true_labels, result.assignments),
        "delta_alpha": (math.fsum(d for _, d in records) / len(records)
                        if records else math.nan),
    }
    ops.check("map_estimate + export", problems + finite_problems(quality))
    if resume:
        tail = []
        if resumed is None:
            tail.append(f"no checkpoint at post {resume_at} to resume from")
        else:
            for post in posts[resumed.n:]:
                resumed.step(post)
            tail = same_state(resumed, system)
        ops.check(f"resume from post {resume_at}", tail)
    return Job(posts=n, stream_ns=t_stream - t_start - paused,
               job_ns=t_end - t_start - paused, check_ns=paused + now() - t_end,
               service_ns=rec.service_ns,
               quality=quality,
               fingerprint=(tuple(result.assignments), tuple(system.log_weights)),
               final_system=system, result=result, recorder=rec)


def predict_job(data: Data, rec: StepRecorder, tracer: Tracer | None, ops: Ops,
                resume: bool) -> Job:
    """``sdhawkes predict``: the hide-and-predict protocol over the trials,
    then the loose-criterion RMSE."""
    spec = data.spec
    posts = data.posts
    span = span_maker(tracer)
    t_start = now()
    with rec.installed():
        with span("evaluation.protocol"):
            # the protocol derives each trial's engine seed from its own seed
            records = evaluation.location_prediction_protocol(
                posts, data.hyper, data.config, n_trials=spec.trials,
                seed=data.seed)
        t_protocol = now()
        with span("evaluation.rmse_selected"):
            scale = evaluation.dataset_spatial_scale(posts)
            rmse = evaluation.rmse_selected(records, "loose", scale, seed=data.seed)
    t_end = now()
    n_steps = spec.trials * len(posts)
    ops.steps(rec.steps, rec.nonfinite, "protocol stream")
    problems = []
    if rec.steps != n_steps:
        problems.append(f"{rec.steps} steps for {spec.trials} trials of {len(posts)} posts")
    if len(rec.map_ns) != spec.trials:
        problems.append(f"{len(rec.map_ns)} map_estimate calls for {spec.trials} trials")
    if not records or len({r.index for r in records}) != len(records):
        problems.append("prediction records empty or not one per hidden post")
    result = rec.last_map
    if result is None:
        raise RuntimeError("prediction protocol made no map_estimate call")
    problems += result_problems(result, len(posts))
    quality = {
        "rmse_loose": math.nan if rmse is None else rmse,
        "nmi": evaluation.nmi(data.true_labels, result.assignments),
    }
    ops.check("prediction protocol", problems + finite_problems(quality))
    return Job(posts=n_steps, stream_ns=t_protocol - t_start,
               job_ns=t_end - t_start, check_ns=now() - t_end,
               service_ns=rec.service_ns,
               quality=quality,
               fingerprint=(tuple((r.index, r.predicted) for r in records),
                            tuple(result.assignments)),
               result=result, recorder=rec)


def gof_job(data: Data, rec: StepRecorder, tracer: Tracer | None, ops: Ops,
            resume: bool) -> Job:
    """``sdhawkes gof --with-dhp``: spatial gof and perplexity of the model,
    lambda0 tuning of the content+time model, and its perplexity."""
    posts = data.posts
    hyper = data.hyper
    config = data.config
    burn, window = GOF_BURN_IN, GOF_WINDOW
    span = span_maker(tracer)
    t_start = now()
    with rec.installed():
        with span("evaluation.spatial_gof"):
            model = evaluation.SmcPredictor(hyper, config)
            gof = evaluation.spatial_gof(posts, model, burn, window)
        with span("evaluation.perplexity"):
            perp = evaluation.perplexity(posts, evaluation.SmcPredictor(hyper, config),
                                         burn, window)
        # the content+time comparison (tuning and its perplexity scan) runs
        # with the stream's own engine seed and tunes to the generator's
        # pattern count, so it does the same work on every run: with the
        # run's seed, the tuning's early exit and the tuned model's pattern
        # count made the job's length and its p99 vary by a third by seed
        reference = replace(config, seed=data.spec.stream_seed)
        n_patterns = len(set(data.true_labels[:burn + window]))
        with span("evaluation.tune"):
            lam = evaluation.tune_dhp_lambda0(posts[:burn], hyper, n_patterns,
                                              reference, iters=GOF_TUNE_ITERS)
        with span("evaluation.dhp_perplexity"):
            dhp = evaluation.SmcPredictor(replace(hyper, lambda0=lam),
                                          replace(reference, spatial=False))
            dhp_perp = evaluation.perplexity(posts, dhp, burn, window)
    t_end = now()
    ops.steps(rec.steps, rec.nonfinite, "gof streams")
    n_scan = burn + window
    result = model.system.map_estimate()
    quality = {
        "spatial_gof": gof,
        "perplexity": perp,
        "dhp_perplexity": dhp_perp,
        "nmi": evaluation.nmi(data.true_labels[:n_scan], result.assignments),
    }
    problems = system_problems(model.system, n_scan) + result_problems(result, n_scan)
    if not perp > 0 or not dhp_perp > 0:
        problems.append("perplexity must be positive")
    ops.check("spatial_gof", problems + finite_problems({"spatial_gof": gof}))
    ops.check("perplexity", finite_problems({"perplexity": perp}))
    ops.check("tune_dhp_lambda0", finite_problems({"lambda0": lam}))
    ops.check("dhp perplexity", finite_problems({"dhp_perplexity": dhp_perp}))
    return Job(posts=rec.steps, stream_ns=t_end - t_start, job_ns=t_end - t_start,
               check_ns=now() - t_end, service_ns=rec.service_ns, quality=quality,
               fingerprint=(gof, perp, dhp_perp, lam, tuple(result.assignments)),
               final_system=model.system, result=result, recorder=rec)


JOBS = {"infer": infer_job, "predict": predict_job, "gof": gof_job}


def run_job(data: Data, tracer: Tracer | None, ops: Ops, resume: bool,
            snapshot_at=()) -> Job:
    rec = StepRecorder(tracer, snapshot_at)
    return JOBS[data.spec.kind](data, rec, tracer, ops, resume)


def snapshot_positions(spec: Spec, count: int = 6) -> list[int]:
    """Step indices, spread over the first stream a job steps, at which the
    traced job copies the system for the layer replays."""
    n = spec.n_posts
    return [n * (j + 1) // (count + 1) for j in range(count)]
