"""Persistent artifact formats shared by all stages.

An artifact is a pair of files ``<stem>.json`` (manifest) and ``<stem>.bin``
(raw row-major little-endian float64). The binary payload is bit-exact
across platforms; the manifest carries interpretation. Non-finite payloads
are rejected on read and write because every downstream solver assumes
finite inputs.

A record is a dataclass stored as one JSON file (`record_json`), a report
table one CSV file (`csv_text`). Every file goes to disk through
`write_file`, which replaces it whole, or leaves it as it is when it
already holds the bytes.
"""

from __future__ import annotations

import json
import os
import stat
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import (InvalidInputError, UnsupportedVersionError, check_fields, from_json_object,
                     naming)

SCHEMA_VERSION = 1
DTYPE = "f64le"
ROLES = ("trajectory", "loss_matrix", "distance_matrix")
SPLITS = ("train", "test", "probe")


@dataclass(kw_only=True)
class ArtifactManifest:
    """Sidecar description of one binary matrix. The field order is the key
    order of `<stem>.json`."""

    schema_version: int = SCHEMA_VERSION
    role: str
    dtype: str = DTYPE
    shape: list[int]
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.shape, tuple):  # a numpy shape
            self.shape = list(self.shape)
        check_fields(type(self), vars(self), "manifest")
        if self.schema_version != SCHEMA_VERSION:
            raise UnsupportedVersionError(
                f"unsupported schema_version {self.schema_version!r}, expected {SCHEMA_VERSION}"
            )
        if self.role not in ROLES:
            raise InvalidInputError(f"unknown artifact role {self.role!r}")
        if self.dtype != DTYPE:
            raise InvalidInputError(f"unsupported dtype {self.dtype!r}, expected {DTYPE!r}")
        if len(self.shape) != 2 or any(s <= 0 for s in self.shape):
            raise InvalidInputError(f"shape must be two positive integers, got {self.shape!r}")


# `write_file` compares a file's old bytes with its new ones this much at a time
_COMPARE_CHUNK = 1 << 20


def _holds(path: str | Path, data: memoryview) -> bool:
    """Whether `path` is a regular file that holds exactly the bytes `data`.
    Any other file is not opened; the compare stops at the first chunk that
    differs; an OSError is a no."""
    try:
        st = os.lstat(path)
        if not stat.S_ISREG(st.st_mode) or st.st_size != len(data):
            return False
        with open(path, "rb") as old:
            for start in range(0, len(data), _COMPARE_CHUNK):
                chunk = bytes(data[start:start + _COMPARE_CHUNK])
                if old.read(len(chunk)) != chunk:
                    return False
            return not old.read(1)
    except OSError:
        return False


def write_file(path: str | Path, data: str | bytes | memoryview) -> None:
    """Replace `path` whole with `data`, text as its UTF-8 bytes, newlines
    untranslated on every platform: written to
    `<path>.partial`, then renamed onto `path`, so that an interrupted write
    leaves the old file or none, never a cut one. A regular file that
    already holds these bytes is left as it is. A failed write or rename removes
    `<path>.partial` before it raises."""
    raw = data.encode("utf-8") if isinstance(data, str) else data
    if _holds(path, memoryview(raw).cast("B")):
        return
    partial = Path(f"{path}.partial")
    try:
        partial.write_bytes(raw)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def record_json(record) -> str:
    """The stored text of dataclass `record`: its fields in declaration
    order, the keys of each dict-valued field sorted, indent 2."""
    doc = asdict(record)
    for f in fields(record):
        if isinstance(getattr(record, f.name), dict):
            doc[f.name] = dict(sorted(doc[f.name].items()))
    return json.dumps(doc, indent=2) + "\n"


def write_record(record, path: str | Path) -> None:
    write_file(path, record_json(record))


def read_record(cls, path: str | Path, what: str):
    """Inverse of :func:`write_record`: dataclass `cls` from the JSON object
    stored at `path`, checked by `from_json_object`; errors name `what`."""
    return from_json_object(cls, read_json_object(path, what), f"{what} {path}")


def csv_text(header: str, rows: list[list]) -> str:
    """A CSV table: the `header` line, then one line per row, in which None
    is an empty cell and a float is spelled by `repr`."""
    def cell(v) -> str:
        return "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)

    return "\n".join([header, *(",".join(cell(v) for v in row) for row in rows)]) + "\n"


def read_json(path: str | Path, what: str):
    """Read a UTF-8 JSON file; text that is not such JSON is invalid input."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"malformed {what} {path}: {exc}") from exc


def read_json_object(path: str | Path, what: str = "config") -> dict:
    """Read a JSON file that must hold one object."""
    doc = read_json(path, what)
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{what} {path} must be a JSON object")
    return doc


def write_artifact(manifest: ArtifactManifest, matrix: np.ndarray, path: str | Path) -> None:
    """Write ``<path>.json`` and ``<path>.bin`` for a finite 2-D matrix.

    Unless both already hold their bytes, the old manifest is removed
    first and the new one written last, so that an interrupted write
    leaves no manifest beside a payload it does not describe."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if list(matrix.shape) != manifest.shape:
        raise InvalidInputError(
            f"matrix shape {matrix.shape} does not match manifest shape {tuple(manifest.shape)}"
        )
    if not np.isfinite(matrix).all():
        raise InvalidInputError("matrix contains non-finite entries")
    manifest_path, payload_path = Path(f"{path}.json"), Path(f"{path}.bin")
    text = record_json(manifest).encode("utf-8")
    payload = memoryview(np.ascontiguousarray(matrix, dtype="<f8")).cast("B")
    if _holds(manifest_path, memoryview(text)) and _holds(payload_path, payload):
        return
    manifest_path.unlink(missing_ok=True)
    write_file(payload_path, payload)
    write_file(manifest_path, text)


def read_artifact(path: str | Path, role: str) -> tuple[ArtifactManifest, np.ndarray]:
    """Inverse of :func:`write_artifact`; the manifest must declare `role`."""
    bin_path = Path(f"{path}.bin")
    manifest = read_record(ArtifactManifest, Path(f"{path}.json"), "manifest")
    if manifest.role != role:
        raise InvalidInputError(f"artifact {path} has role {manifest.role!r}, not {role}")
    rows, cols = manifest.shape
    expected = 8 * rows * cols
    matrix = np.empty((rows, cols), dtype="<f8")
    with open(bin_path, "rb") as payload:
        size = os.fstat(payload.fileno()).st_size
        if size != expected or payload.readinto(matrix) != expected:
            raise InvalidInputError(f"payload {bin_path} has {size} bytes, expected {expected}")
    matrix = matrix.astype(np.float64, copy=False)  # a no-op on a little-endian machine
    if not np.isfinite(matrix).all():
        raise InvalidInputError(f"payload {bin_path} contains non-finite entries")
    return manifest, matrix


@dataclass
class Trajectory:
    """Ordered optimizer iterates: row t is the parameter vector at step
    ``iteration_ids[t]``."""

    points: np.ndarray
    iteration_ids: np.ndarray
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64)
        self.iteration_ids = np.asarray(self.iteration_ids, dtype=np.int64)
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise InvalidInputError("trajectory must be a T x d matrix with T >= 1")
        if self.iteration_ids.shape != (self.points.shape[0],):
            raise InvalidInputError("iteration_ids length must equal the number of rows")
        if self.points.shape[0] > 1 and not (np.diff(self.iteration_ids) > 0).all():
            raise InvalidInputError("iteration_ids must be strictly increasing")
        if not np.isfinite(self.points).all():
            raise InvalidInputError("trajectory contains non-finite entries")

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class LossMatrix:
    """Per-iterate, per-sample loss values: entry (t, i) is the loss of
    iterate t on evaluation sample i."""

    values: np.ndarray
    iteration_ids: np.ndarray
    sample_ids: np.ndarray
    split: str

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.iteration_ids = np.asarray(self.iteration_ids, dtype=np.int64)
        self.sample_ids = np.asarray(self.sample_ids, dtype=np.int64)
        if self.split not in SPLITS:
            raise InvalidInputError(f"unknown split {self.split!r}")
        if self.values.ndim != 2:
            raise InvalidInputError("loss matrix must be 2-D")
        if self.values.shape != (len(self.iteration_ids), len(self.sample_ids)):
            raise InvalidInputError("loss matrix dimensions inconsistent with id lists")
        if not np.isfinite(self.values).all():
            raise InvalidInputError("loss matrix contains non-finite entries")
        if (self.values < 0).any():
            raise InvalidInputError("loss matrix contains negative entries")


@dataclass
class RunRecord:
    """Summary of one training run: hyperparameters, generalization gap,
    trajectory complexity statistics, and its window's empirical L and B."""

    run_id: str
    n: int
    eta: float
    batch: int
    seed: int
    gen_gap: float
    e_alpha: float
    pmag: dict[str, float]
    lipschitz: float
    loss_bound: float

    def __post_init__(self) -> None:
        if self.e_alpha < 0 or any(v < 0 for v in self.pmag.values()):
            raise InvalidInputError("complexity statistics must be nonnegative")
        if self.lipschitz <= 0 or self.loss_bound <= 0:
            raise InvalidInputError("lipschitz and loss_bound must be positive")


def join_ids(ids: np.ndarray) -> str:
    """The comma-separated form in which artifact metadata stores ids."""
    return ",".join(str(int(i)) for i in ids)


def parse_ids(metadata: dict[str, str], key: str, path: str | Path) -> np.ndarray:
    """The ids that :func:`join_ids` stored under `key` of the metadata of
    artifact `path`; the key is required."""
    if key not in metadata:
        raise InvalidInputError(f"artifact {path} lacks metadata key {key!r}")
    try:
        return np.array([int(p) for p in metadata[key].split(",")], dtype=np.int64)
    except ValueError:
        raise InvalidInputError(
            f"artifact {path} metadata {key!r} must be comma-separated integers, "
            f"got {metadata[key]!r}"
        ) from None


def save_trajectory(traj: Trajectory, path: str | Path) -> None:
    meta = traj.meta | {"iteration_ids": join_ids(traj.iteration_ids)}
    manifest = ArtifactManifest(role="trajectory", shape=traj.points.shape, metadata=meta)
    write_artifact(manifest, traj.points, path)


def load_trajectory(path: str | Path) -> Trajectory:
    manifest, matrix = read_artifact(path, "trajectory")
    ids = parse_ids(manifest.metadata, "iteration_ids", path)
    meta = {k: v for k, v in manifest.metadata.items() if k != "iteration_ids"}
    with naming(f"artifact {path}"):
        return Trajectory(points=matrix, iteration_ids=ids, meta=meta)


def save_loss_matrix(losses: LossMatrix, path: str | Path) -> None:
    meta = {
        "iteration_ids": join_ids(losses.iteration_ids),
        "sample_ids": join_ids(losses.sample_ids),
        "split": losses.split,
    }
    manifest = ArtifactManifest(role="loss_matrix", shape=losses.values.shape, metadata=meta)
    write_artifact(manifest, losses.values, path)


def load_loss_matrix(path: str | Path) -> LossMatrix:
    manifest, matrix = read_artifact(path, "loss_matrix")
    meta = manifest.metadata
    iteration_ids = parse_ids(meta, "iteration_ids", path)
    sample_ids = parse_ids(meta, "sample_ids", path)
    with naming(f"artifact {path}"):
        return LossMatrix(values=matrix, iteration_ids=iteration_ids, sample_ids=sample_ids,
                          split=meta.get("split"))
