"""Ingestion, preprocessing and persistence.

Input streams are JSONL (one object per line with keys t, lat/lon or x/y,
text) or CSV with the same columns. Geographic coordinates are projected to
local planar meters about the dataset centroid; times become days. Planar
inputs (synthetic data) are taken as-is, with t already in days.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .generate import PatternParams, SynthResult
from .hawkes import TimeKernel
from .types import ClusteringResult, GeoPost

__all__ = [
    "RawPost",
    "Projection",
    "PreprocessResult",
    "load_posts",
    "preprocess",
    "export_results",
    "write_csv",
    "write_synthetic",
    "load_ground_truth",
    "read_assignments",
]

EARTH_RADIUS_M = 6_371_000.0
SECONDS_PER_DAY = 86_400.0


@dataclass(slots=True)
class RawPost:
    t_days: float
    text: str
    lat: float | None = None
    lon: float | None = None
    x: float | None = None
    y: float | None = None

    @property
    def geographic(self) -> bool:
        return self.lat is not None


@dataclass(slots=True)
class Projection:
    """Equirectangular projection about a reference point (degrees)."""

    lat0: float
    lon0: float

    def to_xy(self, lat: float, lon: float) -> tuple[float, float]:
        k = math.pi / 180.0 * EARTH_RADIUS_M
        x = (lon - self.lon0) * k * math.cos(math.radians(self.lat0))
        y = (lat - self.lat0) * k
        return x, y

    def to_latlon(self, x: float, y: float) -> tuple[float, float]:
        k = math.pi / 180.0 * EARTH_RADIUS_M
        lat = self.lat0 + y / k
        lon = self.lon0 + x / (k * math.cos(math.radians(self.lat0)))
        return lat, lon


def _parse_time(value) -> float:
    """Epoch seconds (number) or ISO-8601 (string) to epoch days."""
    if isinstance(value, (int, float)):
        return float(value) / SECONDS_PER_DAY
    text = str(value).strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    dt = datetime.fromisoformat(text)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp() / SECONDS_PER_DAY


def _finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def _row_to_post(row: dict) -> RawPost:
    text = row.get("text")
    if text is None:
        raise ValueError("missing text")
    if row.get("lat") not in (None, "") and row.get("lon") not in (None, ""):
        lat = float(row["lat"])
        lon = float(row["lon"])
        if not (-90.0 <= lat <= 90.0):
            raise ValueError(f"latitude {lat} out of range")
        if not (-180.0 <= lon <= 180.0):
            raise ValueError(f"longitude {lon} out of range")
        t = _finite("t", _parse_time(row["t"]))
        return RawPost(t_days=t, text=str(text), lat=lat, lon=lon)
    if row.get("x") not in (None, "") and row.get("y") not in (None, ""):
        # planar records carry model time (days) directly
        return RawPost(t_days=_finite("t", float(row["t"])), text=str(text),
                       x=_finite("x", float(row["x"])),
                       y=_finite("y", float(row["y"])))
    raise ValueError("needs either lat/lon or x/y")


def load_posts(path) -> tuple[list[RawPost], list[str]]:
    """Read a post file, sorted by time (stable): CSV if the suffix is
    ``.csv``, JSON lines otherwise. Returns (posts, issues); malformed rows
    are skipped and reported with their line numbers."""
    path = Path(path)
    posts: list[RawPost] = []
    issues: list[str] = []

    with open(path, encoding="utf-8", newline="") as fh:
        if path.suffix.lower() == ".csv":
            rows = enumerate(csv.DictReader(fh), start=2)
        else:
            rows = ((n, line) for n, line in enumerate(fh, start=1) if line.strip())
        for lineno, row in rows:
            try:
                if isinstance(row, str):
                    row = json.loads(row)
                if not isinstance(row, dict):
                    raise ValueError("not a JSON object")
                if row.get("t") in (None, ""):
                    raise ValueError("missing t")
                posts.append(_row_to_post(row))
            except (ValueError, TypeError, KeyError) as exc:
                issues.append(f"line {lineno}: {exc}")

    if not posts:
        raise ValueError(f"no valid posts in {path}"
                         + (f" ({len(issues)} malformed rows)" if issues else ""))
    posts.sort(key=lambda p: p.t_days)
    return posts, issues


@dataclass(slots=True)
class PreprocessResult:
    posts: list[GeoPost]
    vocab: list[str]
    projection: Projection | None = None
    n_dropped_empty: int = 0
    source_indices: list[int] = field(default_factory=list)

    @property
    def vocab_size(self) -> int:
        return len(self.vocab)


def preprocess(raws: list[RawPost], top_k: int = 200) -> PreprocessResult:
    """Tokenize, filter, and project a raw corpus into model space.

    Text is lowercased and whitespace-split (hashtags and punctuation stay
    inside their tokens); the top_k most frequent tokens across the corpus
    are removed (ties broken lexicographically); posts left empty are
    dropped. Geographic corpora are projected to planar meters about the
    centroid, with times rebased to days from the first post.
    """
    if top_k < 0:
        raise ValueError(f"top_k must be >= 0, got {top_k}")
    if not raws:
        raise ValueError("empty corpus")
    tokenized = [r.text.lower().split() for r in raws]
    freq: dict[str, int] = {}
    for tokens in tokenized:
        for tok in tokens:
            freq[tok] = freq.get(tok, 0) + 1
    stop = set(tok for tok, _ in
               sorted(freq.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k])
    kept = [[tok for tok in tokens if tok not in stop] for tokens in tokenized]

    vocab = sorted(set(tok for tokens in kept for tok in tokens))
    token_ids = {tok: i for i, tok in enumerate(vocab)}

    geographic = raws[0].geographic
    if any(r.geographic != geographic for r in raws):
        raise ValueError("cannot mix geographic and planar records")
    projection = None
    if geographic:
        lat0 = sum(r.lat for r in raws) / len(raws)
        lon0 = sum(r.lon for r in raws) / len(raws)
        projection = Projection(lat0=lat0, lon0=lon0)
        t0 = min(r.t_days for r in raws)

    posts: list[GeoPost] = []
    source_indices: list[int] = []
    for i, (raw, tokens) in enumerate(zip(raws, kept)):
        if not tokens:
            continue
        if geographic:
            x, y = projection.to_xy(raw.lat, raw.lon)
            t = raw.t_days - t0
        else:
            x, y = raw.x, raw.y
            t = raw.t_days
        posts.append(GeoPost(t=t, words=[token_ids[tok] for tok in tokens],
                             x=x, y=y))
        source_indices.append(i)
    if not posts:
        raise ValueError("preprocessing removed every post")
    return PreprocessResult(posts=posts, vocab=vocab, projection=projection,
                            n_dropped_empty=len(raws) - len(posts),
                            source_indices=source_indices)


# ----------------------------------------------------------------------
# result files

def _create(path: Path, newline: str | None = None):
    """Open ``path`` for writing as a new file.

    An existing regular file is unlinked first rather than truncated: on
    some filesystems (ext4 with auto_da_alloc) truncating a file flushes the
    data written next synchronously, tens of milliseconds per file. A
    symlink is kept and written through.
    """
    if path.is_file() and not path.is_symlink():
        path.unlink()
    return open(path, "w", encoding="utf-8", newline=newline)


def write_csv(path, header, rows) -> Path:
    """Write a header row and then ``rows`` to a CSV file with Unix line ends."""
    path = Path(path)
    with _create(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def export_results(result: ClusteringResult, out_dir,
                   projection: Projection | None = None,
                   vocab: list[str] | None = None,
                   trace_labels=(), times=None) -> dict[str, Path]:
    """Write assignments, pattern summaries, and optional intensity traces.

    assignments.csv: post_index,label. patterns.csv: one row per pattern
    with size, mean location (lat/lon when a projection is given), scale,
    kernel, time span and the top-10 words. trace_<label>.csv: (t, lambda_s)
    sampled over the pattern's lifetime plus a three-tau tail, from the post
    times (``times``, one per post) the MAP labelling gives the label. Bad
    trace labels or times are refused before any file is written.
    """
    unknown = [label for label in trace_labels
               if label not in range(len(result.summaries))]
    if unknown:
        raise ValueError(f"no pattern has trace label(s) {unknown}")
    if trace_labels and times is None:
        raise ValueError("intensity traces need the post times")
    if times is not None and len(times) != len(result.assignments):
        raise ValueError(f"{len(times)} post times for "
                         f"{len(result.assignments)} assignments")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {"assignments": write_csv(out_dir / "assignments.csv",
                                      ["post_index", "label"],
                                      enumerate(result.assignments))}

    rows = []
    for label, s in enumerate(result.summaries):
        if projection and not math.isnan(s.mean[0]):
            loc = projection.to_latlon(s.mean[0], s.mean[1])
        else:
            loc = s.mean
        words = "|".join(
            (vocab[w] if vocab else str(w)) for w, _ in s.top_words)
        rows.append([label, s.size, f"{loc[0]:.8f}", f"{loc[1]:.8f}",
                     f"{s.scale:.8g}", f"{s.alpha:.8g}", f"{s.tau:.8g}",
                     f"{s.time_span:.8g}", words])
    loc_cols = ["mean_lat", "mean_lon"] if projection else ["mean_x", "mean_y"]
    paths["patterns"] = write_csv(out_dir / "patterns.csv",
                                  ["label", "size", *loc_cols, "sigma", "alpha",
                                   "tau", "time_span", "top_words"], rows)

    n_grid = 400
    for label in trace_labels:
        alpha, tau = result.summaries[label].alpha, result.summaries[label].tau
        event_times = [t for t, k in zip(times, result.assignments) if k == label]
        t_lo = event_times[0]
        t_hi = event_times[-1] + 3.0 * tau
        rows = []
        for j in range(n_grid + 1):
            t = t_lo + (t_hi - t_lo) * j / n_grid
            lam = alpha * sum(math.exp(-(t - ti) / tau)
                              for ti in event_times if ti <= t)
            rows.append([f"{t:.8g}", f"{lam:.8g}"])
        paths[f"trace_{label}"] = write_csv(out_dir / f"trace_{label}.csv",
                                            ["t", "intensity"], rows)
    return paths


def read_assignments(path) -> list[int]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = [(int(r["post_index"]), int(r["label"])) for r in reader]
    rows.sort()
    return [label for _, label in rows]


# ----------------------------------------------------------------------
# synthetic datasets

def write_synthetic(synth: SynthResult, posts_path, truth_path) -> None:
    """Posts as JSONL (planar, with true labels); per-pattern truth as CSV."""
    with _create(Path(posts_path)) as fh:
        for post in synth.posts:
            fh.write(json.dumps({
                "t": post.t,
                "x": post.x,
                "y": post.y,
                "text": " ".join(f"w{w}" for w in post.words),
                "label": post.label_true,
            }) + "\n")
    rows = []
    for label in sorted(synth.params):
        p = synth.params[label]
        rows.append([label, repr(float(p.kernel.alpha)),
                     repr(float(p.kernel.tau)), repr(float(p.sigma)),
                     repr(float(p.center[0])), repr(float(p.center[1])),
                     "|".join(repr(float(v)) for v in p.theta)])
    write_csv(truth_path, ["label", "alpha", "tau", "sigma", "center_x",
                           "center_y", "theta"], rows)


def load_ground_truth(truth_path):
    """Read the per-pattern truth sidecar back into PatternParams."""
    out = {}
    with open(truth_path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out[int(row["label"])] = PatternParams(
                theta=np.array([float(v) for v in row["theta"].split("|")]),
                center=(float(row["center_x"]), float(row["center_y"])),
                sigma=float(row["sigma"]),
                kernel=TimeKernel(float(row["alpha"]), float(row["tau"])),
            )
    return out


def load_synthetic_labels(posts_path) -> list[int]:
    """True labels from a synthetic JSONL stream, in time order. A line that
    is not a JSON object, or whose label is not an integer or t not a
    number, is refused, naming it."""
    rows = []
    with open(posts_path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{posts_path} line {lineno}"
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                row = None
            if not isinstance(row, dict):
                raise ValueError(f"{where}: not a JSON object")
            label, t = row.get("label"), row.get("t")
            if not isinstance(label, int) or isinstance(label, bool):
                raise ValueError(f"{where}: label must be an integer, got {label!r}")
            if not isinstance(t, (int, float)) or isinstance(t, bool):
                raise ValueError(f"{where}: t must be a number, got {t!r}")
            rows.append((t, label))
    return [label for _, label in sorted(rows, key=lambda r: r[0])]
