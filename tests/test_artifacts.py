import json
import os
import re
import struct
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from oracles import bound_result_json, stability_report_json
from trajtopo import artifacts
from trajtopo.artifacts import (
    ArtifactManifest,
    LossMatrix,
    RunRecord,
    Trajectory,
    csv_text,
    load_loss_matrix,
    load_trajectory,
    read_artifact,
    read_record,
    record_json,
    save_loss_matrix,
    save_trajectory,
    write_artifact,
    write_file,
    write_record,
)
from trajtopo.bounds import BoundResult
from trajtopo.errors import InvalidInputError, UnsupportedVersionError, from_json_object
from trajtopo.geometry import DistanceMatrix, load_distance_matrix, save_distance_matrix
from trajtopo.pipeline import ExperimentConfig, TheoremPMag, load_config
from trajtopo.stability import StabilityReport


def manifest_for(matrix, role="trajectory", **meta):
    return ArtifactManifest(role=role, shape=matrix.shape, metadata=meta)


class TestWriteRead:
    def test_single_entry_roundtrip(self, tmp_path):
        matrix = np.array([[0.0]])
        write_artifact(manifest_for(matrix), matrix, tmp_path / "a")
        assert (tmp_path / "a.bin").stat().st_size == 8
        _, back = read_artifact(tmp_path / "a", "trajectory")
        np.testing.assert_array_equal(back, matrix)

    def test_bytes_are_little_endian_row_major(self, tmp_path):
        """Payload bytes must match a hand-packed little-endian encoding."""
        matrix = np.arange(6.0).reshape(2, 3)
        write_artifact(manifest_for(matrix), matrix, tmp_path / "a")
        expected = struct.pack("<6d", 0.0, 1.0, 2.0, 3.0, 4.0, 5.0)
        assert (tmp_path / "a.bin").read_bytes() == expected

    def test_shape_mismatch_rejected(self, tmp_path):
        matrix = np.zeros((2, 3))
        manifest = ArtifactManifest(role="trajectory", shape=(2, 2), metadata={})
        with pytest.raises(InvalidInputError):
            write_artifact(manifest, matrix, tmp_path / "a")

    def test_random_roundtrip_bit_exact(self, tmp_path, rng):
        for trial in range(10):
            rows, cols = rng.integers(1, 20, size=2)
            matrix = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-8, 8)
            write_artifact(manifest_for(matrix, role="loss_matrix"), matrix, tmp_path / f"m{trial}")
            _, back = read_artifact(tmp_path / f"m{trial}", "loss_matrix")
            assert back.tobytes() == matrix.tobytes()

    def test_truncated_payload_rejected(self, tmp_path):
        matrix = np.ones((2, 2))
        write_artifact(manifest_for(matrix), matrix, tmp_path / "a")
        payload = (tmp_path / "a.bin").read_bytes()
        (tmp_path / "a.bin").write_bytes(payload[:-8])
        with pytest.raises(InvalidInputError, match="bytes"):
            read_artifact(tmp_path / "a", "trajectory")

    def test_oversized_payload_rejected_naming_its_size(self, tmp_path):
        matrix = np.ones((2, 2))
        write_artifact(manifest_for(matrix), matrix, tmp_path / "a")
        with open(tmp_path / "a.bin", "ab") as payload:
            payload.write(struct.pack("<d", 1.0))
        with pytest.raises(InvalidInputError, match="has 40 bytes, expected 32"):
            read_artifact(tmp_path / "a", "trajectory")

    def test_future_schema_version_rejected(self, tmp_path):
        matrix = np.ones((1, 1))
        write_artifact(manifest_for(matrix), matrix, tmp_path / "a")
        doc = json.loads((tmp_path / "a.json").read_text())
        doc["schema_version"] = 2
        (tmp_path / "a.json").write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersionError):
            read_artifact(tmp_path / "a", "trajectory")

    def test_nan_payload_rejected(self, tmp_path):
        matrix = np.ones((1, 2))
        write_artifact(manifest_for(matrix), matrix, tmp_path / "a")
        (tmp_path / "a.bin").write_bytes(struct.pack("<2d", 1.0, float("nan")))
        with pytest.raises(InvalidInputError, match="non-finite"):
            read_artifact(tmp_path / "a", "trajectory")

    def test_non_finite_write_rejected(self, tmp_path):
        matrix = np.array([[np.inf]])
        with pytest.raises(InvalidInputError):
            write_artifact(manifest_for(matrix), matrix, tmp_path / "a")

    def test_unwritable_path_raises_os_error(self, tmp_path):
        matrix = np.ones((1, 1))
        with pytest.raises(OSError):
            write_artifact(manifest_for(matrix), matrix, tmp_path / "missing" / "dir" / "a")

    def test_malformed_manifest_rejected(self, tmp_path):
        matrix = np.ones((1, 1))
        write_artifact(manifest_for(matrix), matrix, tmp_path / "a")
        (tmp_path / "a.json").write_text("{not json")
        with pytest.raises(InvalidInputError, match="malformed"):
            read_artifact(tmp_path / "a", "trajectory")

    def test_manifest_key_layout(self, tmp_path):
        """Sidecar JSON carries exactly the five documented keys."""
        matrix = np.ones((1, 1))
        write_artifact(
            manifest_for(matrix, n="10", eta="0.1", batch="1", seed="0", task="quadratic",
                         iterations="5"),
            matrix,
            tmp_path / "a",
        )
        doc = json.loads((tmp_path / "a.json").read_text())
        assert list(doc) == ["schema_version", "role", "dtype", "shape", "metadata"]
        assert doc["dtype"] == "f64le"
        assert set(doc["metadata"]) == {"n", "eta", "batch", "seed", "task", "iterations"}

    def test_unknown_role_rejected(self):
        with pytest.raises(InvalidInputError, match="role"):
            ArtifactManifest(role="weights", shape=(1, 1), metadata={})

    def test_nonpositive_shape_rejected(self):
        with pytest.raises(InvalidInputError, match="shape"):
            ArtifactManifest(role="loss_matrix", shape=(0, 3), metadata={})


class TestDomainTypes:
    def test_trajectory_requires_increasing_ids(self):
        with pytest.raises(InvalidInputError, match="increasing"):
            Trajectory(points=np.zeros((2, 1)), iteration_ids=[1, 1])

    def test_trajectory_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            Trajectory(points=np.array([[np.nan]]), iteration_ids=[0])

    def test_loss_matrix_rejects_negative(self):
        with pytest.raises(InvalidInputError, match="negative"):
            LossMatrix(
                values=np.array([[-0.5]]),
                iteration_ids=[0],
                sample_ids=[0],
                split="train",
            )

    def test_loss_matrix_checks_dimensions(self):
        with pytest.raises(InvalidInputError):
            LossMatrix(
                values=np.ones((2, 2)),
                iteration_ids=[0, 1],
                sample_ids=[0],
                split="test",
            )

    def test_run_record_roundtrip(self):
        record = RunRecord(
            run_id="r", n=10, eta=0.1, batch=1, seed=3, gen_gap=0.25,
            e_alpha=1.5, pmag={"100.0": 7.0}, lipschitz=2.0, loss_bound=1.5,
        )
        back = from_json_object(RunRecord, json.loads(record_json(record)), "run record")
        assert back == record

    def test_run_record_from_json_checks_types(self):
        good = json.loads(record_json(RunRecord(
            run_id="r", n=10, eta=0.1, batch=1, seed=3, gen_gap=0.25,
            e_alpha=1.5, pmag={"100.0": 7.0}, lipschitz=2.0, loss_bound=1.5,
        )))
        for bad in ({"pmag": {"100.0": "x"}}, {"pmag": [7.0]}, {"n": 2.5}, {"gen_gap": None},
                    {"lipschitz": "x"}, {"loss_bound": None}, {"lipschitz": 0.0},
                    {"loss_bound": -1.0}):
            with pytest.raises(InvalidInputError):
                from_json_object(RunRecord, {**good, **bad}, "run record")
        with pytest.raises(InvalidInputError, match="lacks"):
            from_json_object(RunRecord, {k: v for k, v in good.items() if k != "e_alpha"}, "record")

    def test_run_record_rejects_negative_complexity(self):
        with pytest.raises(InvalidInputError):
            RunRecord(
                run_id="r", n=10, eta=0.1, batch=1, seed=3, gen_gap=0.0,
                e_alpha=-1.0, pmag={}, lipschitz=1.0, loss_bound=1.0,
            )


class TestHelpers:
    def test_trajectory_helper_roundtrip(self, tmp_path, rng):
        traj = Trajectory(
            points=rng.standard_normal((5, 3)),
            iteration_ids=[2, 4, 6, 8, 10],
            meta={"task": "quadratic"},
        )
        save_trajectory(traj, tmp_path / "t")
        back = load_trajectory(tmp_path / "t")
        np.testing.assert_array_equal(back.points, traj.points)
        np.testing.assert_array_equal(back.iteration_ids, traj.iteration_ids)
        assert back.meta["task"] == "quadratic"

    def test_loss_matrix_helper_roundtrip(self, tmp_path, rng):
        losses = LossMatrix(
            values=np.abs(rng.standard_normal((4, 6))),
            iteration_ids=[0, 1, 2, 3],
            sample_ids=[10, 11, 12, 13, 14, 15],
            split="probe",
        )
        save_loss_matrix(losses, tmp_path / "l")
        back = load_loss_matrix(tmp_path / "l")
        np.testing.assert_array_equal(back.values, losses.values)
        np.testing.assert_array_equal(back.sample_ids, losses.sample_ids)
        assert back.split == "probe"

    def test_role_checked_on_load(self, tmp_path):
        matrix = np.ones((1, 1))
        write_artifact(manifest_for(matrix, role="loss_matrix"), matrix, tmp_path / "d")
        with pytest.raises(InvalidInputError, match="role"):
            load_trajectory(tmp_path / "d")


def _saved(role, path):
    """A valid two-row artifact of `role` at `path`, and its loader."""
    if role == "trajectory":
        save_trajectory(Trajectory(points=np.ones((2, 3)), iteration_ids=[4, 5]), path)
        return load_trajectory
    if role == "loss_matrix":
        losses = LossMatrix(values=np.ones((2, 3)), iteration_ids=[4, 5], sample_ids=[0, 1, 2],
                            split="train")
        save_loss_matrix(losses, path)
        return load_loss_matrix
    save_distance_matrix(DistanceMatrix(values=[[0.0, 1.0], [1.0, 0.0]], point_ids=[4, 5]), path)
    return load_distance_matrix


def _edit_manifest(stem, edit):
    path = stem.parent / f"{stem.name}.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


_ID_KEYS = [("trajectory", "iteration_ids"), ("loss_matrix", "iteration_ids"),
            ("loss_matrix", "sample_ids"), ("distance_matrix", "point_ids")]


class TestManifestChecks:
    @pytest.mark.parametrize("role, key", _ID_KEYS)
    @pytest.mark.parametrize("ids", ["a,b", "4,", "", "4.0,5"])
    def test_non_integer_ids_rejected(self, tmp_path, role, key, ids):
        load = _saved(role, tmp_path / "a")
        _edit_manifest(tmp_path / "a", lambda d: d["metadata"].update({key: ids}))
        with pytest.raises(InvalidInputError, match=re.escape(f"{tmp_path / 'a'} metadata '{key}'")):
            load(tmp_path / "a")

    @pytest.mark.parametrize("role, key", _ID_KEYS)
    def test_missing_id_key_rejected(self, tmp_path, role, key):
        load = _saved(role, tmp_path / "a")
        _edit_manifest(tmp_path / "a", lambda d: d["metadata"].pop(key))
        with pytest.raises(InvalidInputError, match=f"lacks metadata key '{key}'"):
            load(tmp_path / "a")

    @pytest.mark.parametrize("field, value", [
        ("role", 5), ("shape", "2x3"), ("shape", [2.0, 3]), ("metadata", {"split": 1}),
        ("schema_version", "1"), ("dtype", None),
    ])
    def test_wrong_typed_field_names_the_file(self, tmp_path, field, value):
        _saved("loss_matrix", tmp_path / "a")
        _edit_manifest(tmp_path / "a", lambda d: d.update({field: value}))
        with pytest.raises(InvalidInputError, match=re.escape(f"manifest {tmp_path / 'a.json'} '{field}'")):
            load_loss_matrix(tmp_path / "a")

    def test_unknown_key_rejected(self, tmp_path):
        _saved("trajectory", tmp_path / "a")
        _edit_manifest(tmp_path / "a", lambda d: d.update(comment="x"))
        with pytest.raises(InvalidInputError, match="unknown manifest .* keys: \\['comment'\\]"):
            load_trajectory(tmp_path / "a")

    @pytest.mark.parametrize("role", ["trajectory", "loss_matrix", "distance_matrix"])
    def test_read_artifact_checks_role(self, tmp_path, role):
        _saved(role, tmp_path / "a")
        other = "trajectory" if role != "trajectory" else "distance_matrix"
        with pytest.raises(InvalidInputError, match=f"has role '{role}', not {other}"):
            read_artifact(tmp_path / "a", other)
        manifest, _ = read_artifact(tmp_path / "a", role)
        assert manifest.role == role

    @pytest.mark.parametrize("role", ["trajectory", "loss_matrix", "distance_matrix"])
    def test_loader_roundtrip_rewrites_same_bytes(self, tmp_path, role):
        load = _saved(role, tmp_path / "a")
        manifest, matrix = read_artifact(tmp_path / "a", role)
        assert matrix.dtype == np.float64
        assert matrix.flags.c_contiguous and matrix.flags.writeable
        write_artifact(manifest, matrix, tmp_path / "b")
        for suffix in (".json", ".bin"):
            assert (tmp_path / f"b{suffix}").read_bytes() == (tmp_path / f"a{suffix}").read_bytes()
        load(tmp_path / "b")


def _layout(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


_REPORT = StabilityReport(n=400, J=2, direction="directed", eval_split="validation",
                          init_mode="locally_converged", seeds=[3, 9], beta_hats=[0.125, 1e-17],
                          raw_deviations=[0.25, 2e-17], mean=0.0625, stderr=0.0625)
_BOUND = BoundResult(theorem="pmag", beta=0.5, value=2.0, inputs={"z": 1.0, "a": 2})
_CONFIG = ExperimentConfig(n_grid=[8], pmag_scales=[100.0, 1.0], lipschitz=2.0,
                           stability={"step": 0.1, "seeds": [0], "J": 2})

# each record kind with its stored text, keys listed by hand: fields in
# declaration order, the keys of a dict-valued field sorted
_STORED = {
    "run-record": (
        RunRecord(run_id="r", n=10, eta=0.1, batch=1, seed=3, gen_gap=-0.25, e_alpha=1.5,
                  pmag={"100.0": 7.0, "1.0": 2.0, "theorem": 3.0}, lipschitz=2.0, loss_bound=1.5),
        _layout({"run_id": "r", "n": 10, "eta": 0.1, "batch": 1, "seed": 3, "gen_gap": -0.25,
                 "e_alpha": 1.5, "pmag": {"1.0": 2.0, "100.0": 7.0, "theorem": 3.0},
                 "lipschitz": 2.0, "loss_bound": 1.5})),
    "stability-report": (_REPORT, stability_report_json(_REPORT)),
    "bound-result": (_BOUND, bound_result_json(_BOUND)),
    "theorem-pmag": (TheoremPMag(scale=2.5, pmag=1.25), _layout({"scale": 2.5, "pmag": 1.25})),
    "manifest": (
        ArtifactManifest(role="loss_matrix", shape=[2, 3],
                         metadata={"split": "train", "iteration_ids": "0,1"}),
        _layout({"schema_version": 1, "role": "loss_matrix", "dtype": "f64le", "shape": [2, 3],
                 "metadata": {"iteration_ids": "0,1", "split": "train"}})),
    "run-config": (_CONFIG, _layout(asdict(_CONFIG)
                                    | {"stability": {"J": 2, "seeds": [0], "step": 0.1}})),
}


@pytest.mark.parametrize("record, text", _STORED.values(), ids=list(_STORED))
def test_every_record_kind_stores_its_layout_and_reads_back_equal(tmp_path, record, text):
    """`write_record` stores each record kind in its layout, leaving no
    `.partial` file, and the typed reader gives back an equal record, also
    from the compact spelling in which older versions wrote
    `theorem_pmag.json`."""
    def read(path: Path):
        if isinstance(record, ExperimentConfig):
            return load_config(path)
        return read_record(type(record), path, "record")

    write_record(record, tmp_path / "r.json")
    assert record_json(record) == (tmp_path / "r.json").read_text() == text
    assert read(tmp_path / "r.json") == record
    (tmp_path / "compact.json").write_text(json.dumps(json.loads(text)) + "\n")
    assert read(tmp_path / "compact.json") == record
    assert sorted(p.name for p in tmp_path.iterdir()) == ["compact.json", "r.json"]


@pytest.mark.parametrize("fail", ["write", "replace"])
def test_failed_write_file_leaves_no_partial_file(tmp_path, monkeypatch, fail):
    """A write or rename that fails raises, and takes its `<path>.partial`
    with it; the file it was to replace stays as it was."""
    (tmp_path / "r.txt").write_text("old")
    if fail == "write":
        def write_bytes(self, data):
            self.open("wb").close()
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_bytes", write_bytes)
    else:
        def replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError):
        write_file(tmp_path / "r.txt", b"new")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.txt"]
    assert (tmp_path / "r.txt").read_text() == "old"


def _identity(path: Path) -> tuple[int, int]:
    st = path.stat()
    return st.st_ino, st.st_mtime_ns


def test_write_file_leaves_a_file_that_holds_its_bytes(tmp_path, monkeypatch):
    """A file that already holds the bytes, given as text, bytes or a
    memoryview of a matrix, is neither written nor renamed onto."""
    text = tmp_path / "r.txt"
    write_file(text, "same é\n")
    matrix = np.arange(6.0).reshape(2, 3)
    write_artifact(manifest_for(matrix), matrix, tmp_path / "m")
    before = {p.name: _identity(p) for p in tmp_path.iterdir()}
    monkeypatch.setattr(os, "replace", lambda *a: pytest.fail("renamed onto a file"))
    for data in ("same é\n", "same é\n".encode(), memoryview("same é\n".encode())):
        write_file(text, data)
    write_artifact(manifest_for(matrix), matrix, tmp_path / "m")
    assert {p.name: _identity(p) for p in tmp_path.iterdir()} == before
    assert sorted(before) == ["m.bin", "m.json", "r.txt"]


@pytest.mark.parametrize("new", [b"sane\n", b"same, longer\n", b"sam", b""],
                         ids=["same-length", "longer", "shorter", "empty"])
def test_write_file_replaces_a_file_whose_bytes_differ(tmp_path, new):
    path = tmp_path / "r.txt"
    path.write_bytes(b"same\n")
    inode = path.stat().st_ino
    write_file(path, new)
    assert path.read_bytes() == new
    assert path.stat().st_ino != inode  # renamed onto, not written in place
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.txt"]


def test_write_file_reads_one_chunk_of_an_old_payload_that_differs_in_it(tmp_path, monkeypatch):
    """The compare with an old payload of the same size stops at its first
    differing chunk: one read of at most one chunk."""
    chunk = artifacts._COMPARE_CHUNK
    path = tmp_path / "p.bin"
    path.write_bytes(bytes(3 * chunk + 5))
    reads = []

    class Counted:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.handle.close()

        def read(self, size=-1):
            data = self.handle.read(size)
            reads.append(len(data))
            return data

    monkeypatch.setattr(artifacts, "open", lambda *a, **k: Counted(open(*a, **k)), raising=False)
    new = b"\x01" + bytes(3 * chunk + 4)
    write_file(path, new)
    assert reads == [chunk]
    assert path.read_bytes() == new
    reads.clear()
    write_file(path, new)  # now every chunk is read, then the end, and the file is left
    assert reads == [chunk, chunk, chunk, 5, 0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize("data", [b"", b"x"], ids=["empty", "one-byte"])
def test_write_file_replaces_a_named_pipe_without_opening_it(tmp_path, data):
    """A named pipe is not a file that holds the bytes, even an empty
    payload: it is replaced whole, and never opened, which would block
    until a writer came."""
    path = tmp_path / "p"
    os.mkfifo(path)
    writer = threading.Thread(target=write_file, args=(path, data), daemon=True)
    writer.start()
    writer.join(10)
    if writer.is_alive():
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))  # lets the blocked open return
        pytest.fail("write_file opened the named pipe")
    assert path.is_file() and path.read_bytes() == data


def test_write_file_replaces_a_link_to_a_file_that_holds_the_bytes(tmp_path):
    target = tmp_path / "t.txt"
    target.write_text("same\n")
    link = tmp_path / "l.txt"
    link.symlink_to(target)
    write_file(link, "same\n")
    assert not link.is_symlink() and link.read_text() == "same\n"


def test_csv_text_spells_none_empty_and_floats_by_repr():
    rows = [[8, "e_alpha", np.float64(0.1), None, 1e-17, 3], ["a", 2.0, -0.5, 0, None, None]]
    assert csv_text("h", rows) == "h\n8,e_alpha,0.1,,1e-17,3\na,2.0,-0.5,0,,\n"
    assert csv_text("h", []) == "h\n"


def test_no_module_but_artifacts_writes_a_file():
    """Every file a run stores goes through `artifacts.write_file`, which
    replaces it whole, and every record is spelled by `record_json`; only
    `artifacts` writes or spells one itself."""
    src = Path(__file__).resolve().parents[1] / "src" / "trajtopo"
    banned = ("write_text(", "write_bytes(", ".to_json(", "json.dumps(asdict(")
    found = [f"{path.name}: {needle}" for path in sorted(src.glob("*.py"))
             if path.name != "artifacts.py"
             for needle in banned if needle in path.read_text(encoding="utf-8")]
    assert found == []


def test_write_file_writes_text_as_its_utf8_bytes(tmp_path, monkeypatch):
    """Text reaches the disk as exactly its UTF-8 bytes, so a report holds
    the same bytes on every platform and a re-run finds them: no file is
    opened in text mode, which would turn each newline into `os.linesep`."""
    monkeypatch.setattr(Path, "write_text", lambda *a, **k: pytest.fail("opened in text mode"))
    text = "a,b\nç é\r\n\n"
    write_file(tmp_path / "r.txt", text)
    assert (tmp_path / "r.txt").read_bytes() == text.encode("utf-8")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.txt"]


def test_an_interrupted_artifact_write_leaves_no_manifest_beside_an_old_payload(tmp_path,
                                                                                 monkeypatch):
    """A write interrupted in the payload, over an artifact of the same
    shape, leaves no manifest: the read fails rather than pair the new
    manifest's point ids with the old distances."""
    old = DistanceMatrix(values=[[0.0, 1.0], [1.0, 0.0]], point_ids=[0, 5])
    new = DistanceMatrix(values=[[0.0, 2.0], [2.0, 0.0]], point_ids=[3, 7])
    save_distance_matrix(old, tmp_path / "d")
    real = Path.write_bytes

    def interrupted(self, data):
        if self.name.endswith(".bin.partial"):
            raise KeyboardInterrupt
        return real(self, data)

    monkeypatch.setattr(Path, "write_bytes", interrupted)
    with pytest.raises(KeyboardInterrupt):
        save_distance_matrix(new, tmp_path / "d")
    monkeypatch.undo()
    with pytest.raises(OSError):
        load_distance_matrix(tmp_path / "d")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.bin"]
    save_distance_matrix(new, tmp_path / "d")
    got = load_distance_matrix(tmp_path / "d")
    assert (got.values.tobytes(), got.point_ids.tolist()) == (new.values.tobytes(), [3, 7])
