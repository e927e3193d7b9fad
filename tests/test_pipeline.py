import ast
import hashlib
import importlib
import importlib.util
import json
import re
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from trajtopo.analysis import THEOREM_KEY
from trajtopo.artifacts import LossMatrix, RunRecord, Trajectory, save_loss_matrix, save_trajectory
from trajtopo.cli import main
from trajtopo.errors import InvalidInputError, from_json_object
from trajtopo.pipeline import (
    ExperimentConfig,
    StabilitySettings,
    _load_constants,
    cell_id,
    config_from_dict,
    load_config,
    run_pipeline,
)
from trajtopo.stability import StabilityReport

SMALL = dict(
    task="quadratic",
    input_dim=3,
    n_grid=[20, 40],
    eta_grid=[0.05],
    batch_grid=[1],
    seeds=[0, 1],
    iterations=40,
    subsample=30,
    stability=StabilitySettings(J=4, iterations=30, converge_iterations=0, seeds=[0, 1]),
)


def small_config(**overrides) -> ExperimentConfig:
    doc = dict(SMALL)
    doc.update(overrides)
    return ExperimentConfig(**doc)


def tree_digest(root: Path, subdirs=("report", "cells")) -> dict[str, str]:
    out = {}
    for sub in subdirs:
        for path in sorted((root / sub).rglob("*")):
            if path.is_file():
                out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


class TestPipeline:
    def test_single_cell_smoke(self, tmp_path):
        cfg = small_config(n_grid=[25], seeds=[0], stability=None)
        result = run_pipeline(cfg, output_dir=tmp_path / "out")
        assert len(result.records) == 1
        record = result.records[0]
        assert np.isfinite(record.gen_gap)
        assert record.e_alpha >= 0.0
        assert all(v >= 1.0 for v in record.pmag.values())
        assert (tmp_path / "out" / "report" / "summary.json").exists()

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            small_config(n_grid=[])

    def test_rerun_skips_and_reproduces(self, tmp_path):
        cfg = small_config()
        first = run_pipeline(cfg, output_dir=tmp_path / "out")
        before = tree_digest(tmp_path / "out")
        second = run_pipeline(cfg, output_dir=tmp_path / "out")
        assert first.computed == 4 and first.skipped == 0
        assert second.computed == 0 and second.skipped == 4
        assert tree_digest(tmp_path / "out") == before

    def test_fresh_runs_byte_identical(self, tmp_path):
        run_pipeline(small_config(), output_dir=tmp_path / "a")
        run_pipeline(small_config(), output_dir=tmp_path / "b")
        assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")

    def test_parallel_matches_serial(self, tmp_path):
        run_pipeline(small_config(jobs=1), output_dir=tmp_path / "serial")
        run_pipeline(small_config(jobs=2), output_dir=tmp_path / "parallel")
        assert tree_digest(tmp_path / "serial") == tree_digest(tmp_path / "parallel")
        log = (tmp_path / "parallel" / "pipeline.log.jsonl").read_text().splitlines()
        cells = [e for e in map(json.loads, log) if e["event"] == "cell"]
        assert len(cells) == 4
        assert all(e["seconds"] >= 0.0 for e in cells)

    def test_stability_and_bounds_sections(self, tmp_path):
        result = run_pipeline(small_config(), output_dir=tmp_path / "out")
        assert [r.n for r in result.stability_reports] == [20, 40]
        assert {row["n"] for row in result.bound_rows} == {20, 40}
        for row in result.bound_rows:
            assert np.isfinite(row["ealpha_bound"]) and row["ealpha_bound"] >= 0
            assert np.isfinite(row["pmag_bound"]) and row["pmag_bound"] >= 0
        summary = json.loads((tmp_path / "out" / "report" / "summary.json").read_text())
        assert set(summary["per_n_stats"]) == {
            "e_alpha", "pmag_fixed_scale", "pmag_theorem_scale"
        }

    def test_theorem_scale_recorded_per_cell(self, tmp_path):
        result = run_pipeline(small_config(), output_dir=tmp_path / "out")
        assert all("theorem" in r.pmag for r in result.records)

    def test_zero_stability_skips_bounds_but_reports_survive(self, tmp_path):
        """A zero stability coefficient (J = 0) gives no usable bound; the
        grid reports must still be written."""
        cfg = small_config(stability=StabilitySettings(J=0, iterations=20,
                                                       converge_iterations=0))
        result = run_pipeline(cfg, output_dir=tmp_path / "out")
        assert result.bound_rows == []
        assert (tmp_path / "out" / "report" / "grid_e_alpha.csv").exists()
        assert not (tmp_path / "out" / "report" / "grid_pmag_theorem_scale.csv").exists()

    def test_warmup_offsets_recorded_window(self, tmp_path):
        from trajtopo.artifacts import load_trajectory

        cfg = small_config(n_grid=[10], seeds=[0], warmup=25, iterations=30,
                           subsample=1000, stability=None)
        result = run_pipeline(cfg, output_dir=tmp_path / "out")
        traj = load_trajectory(
            tmp_path / "out" / "cells" / result.records[0].run_id / "trajectory"
        )
        assert traj.iteration_ids[0] == 25
        assert traj.iteration_ids[-1] == 55

    def test_config_file_roundtrip(self, tmp_path):
        doc = {
            "task": "quadratic",
            "n_grid": [10],
            "eta_grid": [0.1],
            "seeds": [0],
            "iterations": 20,
            "subsample": 10,
            "stability": {"J": 2, "iterations": 10, "converge_iterations": 0},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert cfg.n_grid == [10]
        assert cfg.stability.J == 2

    def test_unknown_config_key_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown config keys"):
            config_from_dict({"optimizer": "adam"})

    def test_cell_id_stable(self):
        assert cell_id("quadratic", 10, 0.05, 1, 3) == "quadratic-n10-eta0p05-b1-s3"

    def test_numerical_failure_names_the_cell(self, tmp_path):
        from trajtopo.errors import NumericalFailureError

        # a zero learning rate freezes the trajectory, so the empirical
        # Lipschitz constant is undefined for that cell
        cfg = small_config(n_grid=[10], seeds=[0], eta_grid=[0.0], stability=None)
        with pytest.raises(NumericalFailureError, match="quadratic-n10-eta0p0-b1-s0"):
            run_pipeline(cfg, output_dir=tmp_path / "out")


class TestCli:
    def run_cli(self, *argv):
        return main([str(a) for a in argv])

    def test_run_and_report_roundtrip(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "task": "quadratic", "n_grid": [12, 24], "eta_grid": [0.05],
            "seeds": [0, 1], "iterations": 30, "subsample": 20, "input_dim": 2,
        }))
        assert self.run_cli("run", "--config", cfg_path, "--out", tmp_path / "out") == 0
        summary_first = (tmp_path / "out" / "report" / "summary.json").read_bytes()
        assert self.run_cli("report", tmp_path / "out", "--out", tmp_path / "rep2") == 0
        rebuilt = json.loads((tmp_path / "rep2" / "summary.json").read_text())
        original = json.loads(summary_first)
        assert rebuilt["runs"] == original["runs"]
        assert rebuilt["per_n_stats"]["e_alpha"] == original["per_n_stats"]["e_alpha"]

    def test_report_rewrites_run_reports_byte_identical(self, tmp_path, capsys):
        """`report` rebuilds every report file of a finished run, in place or
        elsewhere, including stability, bounds and the first configured
        fixed scale (20.0, which sorts after 100.0 as a string)."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "task": "quadratic", "input_dim": 3, "n_grid": [20, 40], "eta_grid": [0.05],
            "seeds": [0, 1], "iterations": 40, "subsample": 30, "pmag_scales": [20.0, 100.0],
            "stability": {"J": 4, "iterations": 30, "converge_iterations": 0, "seeds": [0, 1]},
        }))
        out = tmp_path / "out"
        assert self.run_cli("run", "--config", cfg_path, "--out", out) == 0
        before = tree_digest(out, subdirs=("report",))
        summary = json.loads((out / "report" / "summary.json").read_text())
        assert summary["bounds"] and summary["stability"]
        assert "report/grid_pmag_theorem_scale.csv" in before

        assert self.run_cli("report", out) == 0
        assert tree_digest(out, subdirs=("report",)) == before
        # records and summaries that still carry the dropped `beta_hat`,
        # `analytic_beta` and `extras` keys load and give the same reports
        for path in out.glob("cells/*/record.json"):
            path.write_text(json.dumps({**json.loads(path.read_text()), "beta_hat": None}))
        for entry in summary["stability"]:
            entry.update(analytic_beta=None, extras={})
        (out / "report" / "summary.json").write_text(json.dumps(summary))
        assert self.run_cli("report", out, "--out", tmp_path / "elsewhere") == 0
        elsewhere = tree_digest(tmp_path, subdirs=("elsewhere",))
        assert {k.replace("elsewhere/", "report/"): v for k, v in elsewhere.items()} == before

    def test_stage_chain_matches_pipeline(self, tmp_path, capsys):
        """traj-gen + distmat + lifetime-sum/pmag reproduce the pipeline's
        complexity values for the same settings."""
        out = tmp_path / "out"
        cfg = small_config(n_grid=[20], seeds=[3], stability=None, subsample=25)
        result = run_pipeline(cfg, output_dir=out)
        record = result.records[0]

        stage = tmp_path / "stage"
        assert self.run_cli(
            "traj-gen", "--task", "quadratic", "--n", 20, "--eta", 0.05,
            "--seed", 3, "--iterations", 40, "--input-dim", 3, "--out", stage,
        ) == 0
        assert self.run_cli(
            "distmat", stage / "trajectory", "--subsample", 25, "--seed", 3,
            "--out", stage / "dist",
        ) == 0
        capsys.readouterr()
        assert self.run_cli("lifetime-sum", stage / "dist", "--alpha", 1.0) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["e_alpha"] == record.e_alpha
        assert self.run_cli("pmag", stage / "dist", "--scales", "100.0") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["100.0"]["pmag"] == record.pmag["100.0"]
        # conjugate gradient stays selectable on the CLI as a cross-check
        assert self.run_cli("pmag", stage / "dist", "--scales", "100.0",
                            "--solver", "conjugate_gradient") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["100.0"]["iterations"] > 0
        assert doc["100.0"]["pmag"] == pytest.approx(record.pmag["100.0"], rel=1e-8)

    def test_pmag_theorem_scale_flag(self, tmp_path, capsys):
        from conftest import distances_of
        from trajtopo.geometry import save_distance_matrix
        from trajtopo.magnitude import pmag_scale, positive_magnitude

        rng = np.random.default_rng(0)
        dist = distances_of(rng.standard_normal((8, 2)))
        save_distance_matrix(dist, tmp_path / "dist")
        assert self.run_cli(
            "pmag", tmp_path / "dist", "--theorem-scale", "1.0,2.0,1.0,0.008",
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        scale = pmag_scale(1.0, 2.0, 1.0, 0.008)
        assert doc[repr(scale)]["pmag"] == positive_magnitude(dist, scale)

    def test_stability_two_artifact_mode(self, tmp_path, capsys):
        from trajtopo.artifacts import LossMatrix, save_loss_matrix
        from trajtopo.stability import estimate_stability

        a = LossMatrix(values=np.array([[0.0], [1.0]]), iteration_ids=[0, 1],
                       sample_ids=[0], split="probe")
        b = LossMatrix(values=np.array([[0.5], [0.9]]), iteration_ids=[0, 1],
                       sample_ids=[0], split="probe")
        save_loss_matrix(a, tmp_path / "a")
        save_loss_matrix(b, tmp_path / "b")
        assert self.run_cli("stability", tmp_path / "a", tmp_path / "b") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["estimate"] == estimate_stability(a, b)

    def test_stability_config_mode(self, tmp_path, capsys):
        cfg = tmp_path / "stab.json"
        cfg.write_text(json.dumps({
            "task": "quadratic", "n": [10, 20], "J": 2, "seeds": [0],
            "input_dim": 2, "iterations": 15, "step": 0.2,
        }))
        csv_path = tmp_path / "stab.csv"
        assert self.run_cli("stability", "--config", cfg, "--csv", csv_path) == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0].startswith("init_mode,eval_split,n,J")
        assert len(lines) == 3

    def test_bound_subcommand(self, tmp_path, capsys):
        assert self.run_cli(
            "bound", "--theorem", "pmag", "--beta", 1.0, "--loss-bound", 1.0,
            "--lambda", 2.0, "--samples", "1.0",
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 4.0

        report = tmp_path / "stab.json"
        report.write_text(json.dumps({"mean": 8.0}))
        assert self.run_cli(
            "bound", "--theorem", "ealpha", "--stability-report", report,
            "--loss-bound", 1.0, "--k-const", 4.0, "--samples", "0.0",
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 8.0

    def test_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert self.run_cli("run", "--config", bad, "--out", tmp_path / "o") == 2
        assert self.run_cli("lifetime-sum", tmp_path / "missing") == 2
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"n_grid": []}))
        assert self.run_cli("run", "--config", empty, "--out", tmp_path / "o") == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        """Near-coincident points make the similarity system singular at
        double precision, which must surface as exit code 3."""
        from conftest import distances_of
        from trajtopo.geometry import save_distance_matrix

        dist = distances_of([[0.0], [1e-18], [1.0]])
        save_distance_matrix(dist, tmp_path / "dist")
        assert self.run_cli("pmag", tmp_path / "dist", "--scales", "1.0") == 3

    def test_structured_log_records_cells(self, tmp_path):
        out = tmp_path / "out"
        run_pipeline(small_config(n_grid=[15], seeds=[0], stability=None), output_dir=out)
        entries = [
            json.loads(line)
            for line in (out / "pipeline.log.jsonl").read_text().strip().split("\n")
        ]
        cell_events = [e for e in entries if e["event"] == "cell"]
        assert len(cell_events) == 1
        assert cell_events[0]["skipped"] is False
        assert cell_events[0]["seconds"] >= 0.0

    def test_env_var_output_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TRAJTOPO_OUT", str(tmp_path / "envout"))
        assert self.run_cli(
            "traj-gen", "--task", "quadratic", "--n", 5, "--eta", 0.1,
            "--iterations", 10, "--input-dim", 2,
        ) == 0
        assert (tmp_path / "envout" / "trajectory.bin").exists()

    def test_missing_output_dir_rejected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("TRAJTOPO_OUT", raising=False)
        assert self.run_cli(
            "traj-gen", "--task", "quadratic", "--n", 5, "--eta", 0.1,
            "--iterations", 10, "--input-dim", 2,
        ) == 2

    def test_set_overrides(self, tmp_path, capsys):
        assert self.run_cli(
            "run", "--task", "quadratic", "--n-grid", "8", "--eta-grid", "0.1",
            "--seeds", "0", "--iterations", 12, "--set", "subsample=10",
            "--set", "input_dim=2", "--set", 'stability={"J":2,"iterations":10,"converge_iterations":0}',
            "--out", tmp_path / "o",
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"] == 1
        assert (tmp_path / "o" / "report" / "stability.csv").exists()

    def test_set_rejects_unknown_key(self, tmp_path, capsys):
        assert self.run_cli(
            "run", "--task", "quadratic", "--set", "momentum=0.9", "--out", tmp_path / "o",
        ) == 2


def _records_without_summary(out: Path) -> None:
    run_pipeline(small_config(n_grid=[15], seeds=[0], stability=None), output_dir=out)
    (out / "report" / "summary.json").unlink()


def _json_file(name: str, doc):
    def prepare(out: Path) -> None:
        (out / name).write_text(json.dumps(doc))

    return prepare


# a grid that trains in well under a second, should a check ever let it through
_TINY_RUN = {
    "task": "quadratic", "input_dim": 2, "n_grid": [8], "eta_grid": [0.1], "seeds": [0],
    "iterations": 5, "subsample": 5,
    "stability": {"J": 2, "seeds": [0], "iterations": 5, "converge_iterations": 0},
}


def _finished_run(pattern: str, edit):
    """A finished `_TINY_RUN` in `out`, with its config in `out/cfg.json`;
    `edit` changes the JSON object of the first file matching `pattern`, or
    returns the text that replaces that file."""
    def prepare(out: Path) -> None:
        (out / "cfg.json").write_text(json.dumps(_TINY_RUN))
        run_pipeline(config_from_dict(json.loads(json.dumps(_TINY_RUN))), output_dir=out)
        path = sorted(out.glob(pattern))[0]
        doc = json.loads(path.read_text())
        text = edit(doc)
        path.write_text(text if isinstance(text, str) else json.dumps(doc))

    return prepare


def _loss_matrices(edit):
    """Loss-matrix artifacts `out/a` and `out/b`; `edit` changes the JSON
    object of `out/a.json`."""
    def prepare(out: Path) -> None:
        losses = LossMatrix(values=np.ones((2, 3)), iteration_ids=[0, 1], sample_ids=[0, 1, 2],
                            split="train")
        for stem in ("a", "b"):
            save_loss_matrix(losses, out / stem)
        doc = json.loads((out / "a.json").read_text())
        edit(doc)
        (out / "a.json").write_text(json.dumps(doc))

    return prepare


def _artifacts(edit=None):
    """A trajectory artifact `out/t` and its distance matrix `out/d`; `edit`
    changes the JSON object of `out/<stem>.json` for each `stem: edit`."""
    def prepare(out: Path) -> None:
        traj = Trajectory(points=np.arange(8.0).reshape(4, 2) ** 2, iteration_ids=[3, 4, 5, 6])
        save_trajectory(traj, out / "t")
        assert main(["distmat", str(out / "t"), "--out", str(out / "d")]) == 0
        for stem, change in (edit or {}).items():
            path = out / f"{stem}.json"
            doc = json.loads(path.read_text())
            change(doc)
            path.write_text(json.dumps(doc))

    return prepare


_RERUN = ["run", "--config", "{out}/cfg.json", "--out", "{out}"]
_TRAJ_GEN = ["traj-gen", "--n", "5", "--eta", "0.1", "--out", "{out}/tg"]
_STABILITY_REST = {"task": "quadratic", "seeds": [0], "input_dim": 2, "iterations": 5}


@pytest.mark.parametrize(
    "argv, prepare, message",
    [
        (["bound", "--theorem", "pmag", "--beta", "0.05", "--loss-bound", "1"], None,
         "pass --samples or --samples-file"),
        (["report", "{out}"], None, "no run records"),
        (["report", "{out}"], _records_without_summary, "summary.json"),
        (["stability", "--config", "{out}/stab.json"], _json_file("stab.json", {"n": "abc"}),
         "'n' must be an integer or a nonempty list of integers"),
        (["stability", "--config", "{out}/stab.json"],
         _json_file("stab.json", {"n": 2.5, **_STABILITY_REST}),
         "'n' must be an integer or a nonempty list of integers"),
        (["stability", "--config", "{out}/stab.json"],
         _json_file("stab.json", {"n": [None], **_STABILITY_REST}),
         "'n' must be an integer or a nonempty list of integers"),
        (["stability", "--config", "{out}/stab.json"],
         _json_file("stab.json", {"n": [], **_STABILITY_REST}),
         "'n' must be an integer or a nonempty list of integers"),
        (["bound", "--theorem", "pmag", "--beta", "0.05", "--loss-bound", "1",
          "--samples-file", "{out}/samples.json"], _json_file("samples.json", ["a"]),
         "samples file"),
        (["bound", "--theorem", "pmag", "--stability-report", "{out}/report.json",
          "--loss-bound", "1", "--samples", "1"], _json_file("report.json", {"n": 5}),
         "'mean'"),
        (["bound", "--theorem", "pmag", "--stability-report", "{out}/report.json",
          "--loss-bound", "1", "--samples", "1"], _json_file("report.json", {"mean": "x"}),
         "'mean'"),
        (["run", "--jobs", "x"], None, "argument --jobs: invalid int value: 'x'"),
        (["traj-gen", "--n", "x", "--eta", "0.1"], None, "argument --n: invalid int value"),
        (["pmag", "{out}/D", "--solver", "nope", "--scales", "1"], None,
         "argument --solver: invalid choice: 'nope'"),
        (["bound", "--loss-bound", "1", "--samples", "1"], None,
         "the following arguments are required: --theorem"),
        (_TRAJ_GEN + ["--input-dim", "0"], None, "input_dim and hidden must be >= 1"),
        (_TRAJ_GEN + ["--iterations", "0"], None, "iteration counts out of range"),
        (_TRAJ_GEN + ["--task", "foo"], None, "argument --task: invalid choice: 'foo'"),
        (["report", "{out}"],
         _finished_run("report/summary.json", lambda d: d.update(pmag_scales=["a"])),
         "'pmag_scales' must be list[float]"),
        (["report", "{out}"],
         _finished_run("report/summary.json", lambda d: d.update(pmag_scales=[])),
         "{out}/report/summary.json: config: scale grid must be nonempty"),
        (["report", "{out}"], _finished_run("report/summary.json", lambda d: d.update(task=5)),
         "'task' must be str"),
        (["report", "{out}"],
         _finished_run("report/summary.json", lambda d: d.update(stability=[{"n": 1}])),
         "stability report in"),
        (["report", "{out}"], _finished_run("cells/*/record.json", lambda d: d.pop("gen_gap")),
         "lacks ['gen_gap']"),
        (_RERUN, _finished_run("cells/*/record.json", lambda d: d.pop("gen_gap")),
         "lacks ['gen_gap']"),
        (_RERUN, _finished_run("cells/*/constants.json", lambda d: d.pop("lipschitz")),
         "lacks ['lipschitz']"),
        (["report", "{out}"],
         _finished_run("cells/*/record.json", lambda d: d.update(gen_gap=None)),
         "record.json 'gen_gap' must be float, got None"),
        (_RERUN, _finished_run("cells/*/constants.json", lambda d: d.update(lipschitz="x")),
         "constants.json 'lipschitz' must be float, got 'x'"),
        (["report", "{out}"],
         _finished_run("report/summary.json", lambda d: d["stability"][0].update(mean=None)),
         "summary.json 'mean' must be float, got None"),
        (["report", "{out}"],
         _finished_run("cells/*/record.json", lambda d: d.update(e_alpha=-1.0)),
         "record.json: complexity statistics must be nonnegative"),
        (["report", "{out}"], _finished_run("cells/*/record.json", lambda d: "{not json"),
         "record.json: Expecting property name enclosed in double quotes"),
        (["distmat", "{out}/t", "--out", "{out}/d2"],
         _artifacts({"t": lambda d: d["metadata"].update(iteration_ids="a,b")}),
         "t metadata 'iteration_ids' must be comma-separated integers, got 'a,b'"),
        (["distmat", "{out}/t", "--out", "{out}/d2"],
         _artifacts({"t": lambda d: d["metadata"].pop("iteration_ids")}),
         "t lacks metadata key 'iteration_ids'"),
        (["distmat", "{out}/t", "--out", "{out}/d2", "--subsample", "0"], _artifacts(),
         "subsample size must be >= 1, got 0"),
        (["lifetime-sum", "{out}/d"], _artifacts({"d": lambda d: d.update(shape="4x4")}),
         "d.json 'shape' must be list[int], got '4x4'"),
        (["pmag", "{out}/d", "--scales", "1"],
         _artifacts({"d": lambda d: d["metadata"].update(point_ids="3,4,5,x")}),
         "d metadata 'point_ids' must be comma-separated integers"),
        (["distmat", "{out}/d", "--out", "{out}/d2"], _artifacts(),
         "has role 'distance_matrix', not trajectory"),
        (["distmat", "{out}/t", "--out", "{out}/d2"],
         _artifacts({"t": lambda d: d.update(schema_version=2)}),
         "manifest {out}/t.json: unsupported schema_version 2, expected 1"),
        (["distmat", "{out}/t", "--out", "{out}/d2"],
         _artifacts({"t": lambda d: d["metadata"].update(iteration_ids="1,2")}),
         "artifact {out}/t: iteration_ids length must equal the number of rows"),
        (["stability", "{out}/a", "{out}/b"], _loss_matrices(lambda d: d["metadata"].pop("split")),
         "artifact {out}/a: unknown split None"),
    ],
    ids=["bound-without-samples", "report-without-records", "report-without-summary",
         "stability-n-string", "stability-n-float", "stability-n-null-list",
         "stability-n-empty-list", "bound-samples-not-numbers", "bound-report-without-mean",
         "bound-report-mean-string", "run-jobs-not-int", "traj-gen-n-not-int",
         "pmag-unknown-solver", "bound-without-theorem", "traj-gen-input-dim-0",
         "traj-gen-iterations-0", "traj-gen-unknown-task", "report-summary-scales-strings",
         "report-summary-scales-empty", "report-summary-task-int",
         "report-summary-stability-entry-partial", "report-record-without-gen-gap",
         "rerun-record-without-gen-gap", "rerun-constants-without-lipschitz",
         "report-record-gen-gap-null", "rerun-constants-lipschitz-string",
         "report-summary-stability-mean-null", "report-record-e-alpha-negative",
         "report-record-not-json", "distmat-ids-not-integers",
         "distmat-ids-missing", "distmat-subsample-0", "lifetime-sum-shape-string",
         "pmag-ids-not-integers", "distmat-wrong-role", "distmat-schema-version-2",
         "distmat-ids-wrong-length", "stability-losses-without-split"],
)
def test_cli_misuse_exits_2_with_one_line(tmp_path, capsys, argv, prepare, message):
    out = tmp_path / "out"
    out.mkdir()
    if prepare is not None:
        prepare(out)
    capsys.readouterr()
    assert main([a.format(out=out) for a in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert message.format(out=out) in err
    assert "Traceback" not in err


# One wrong-typed value per config field; a field added without an entry
# here fails the misuse matrix below.
_WRONG_TYPED = {
    "task": 3, "input_dim": 2.5, "n_grid": "abc", "eta_grid": ["x"], "batch_grid": [1.5],
    "seeds": [0.5], "iterations": "a", "warmup": True, "subsample": None, "radius": "big",
    "step_rule": ["constant"], "alpha": None, "pmag_scales": 100.0, "theorem_lambda": "1",
    "stability": [1], "lipschitz": "L", "loss_bound": [1.0], "class_sep": False, "noise": {},
    "hidden": 8.0, "output_dir": 5, "jobs": "2",
}
_WRONG_TYPED_STABILITY = {
    "J": "x", "seeds": 3, "init_mode": 1, "eval_split": None, "direction": True,
    "iterations": "a", "converge_iterations": 1.5, "step": "fast",
}
_RUN = ["run", "--config", "{cfg}", "--out", "{out}"]


def _misuse_cases():
    for f in fields(ExperimentConfig):
        value = _WRONG_TYPED[f.name]
        yield pytest.param(_RUN, {**_TINY_RUN, f.name: value}, id=f"file-{f.name}")
        yield pytest.param(_RUN + ["--set", f"{f.name}={json.dumps(value)}"], _TINY_RUN,
                           id=f"set-{f.name}")
    for f in fields(StabilitySettings):
        value = _WRONG_TYPED_STABILITY[f.name]
        section = {**_TINY_RUN["stability"], f.name: value}
        yield pytest.param(_RUN, {**_TINY_RUN, "stability": section}, id=f"file-stability.{f.name}")
        yield pytest.param(_RUN + ["--set", f"stability.{f.name}={json.dumps(value)}"], _TINY_RUN,
                           id=f"set-stability.{f.name}")
    yield pytest.param(_RUN, {**_TINY_RUN, "n_grid": [20.5]}, id="file-n_grid-float")
    for key, value in (("input_dim", 0), ("hidden", 0), ("lipschitz", -1), ("loss_bound", 0),
                       ("alpha", 2), ("alpha", 0), ("eta_grid", [0.1, -1]), ("batch_grid", [1, 0]),
                       ("n_grid", [0]), ("step_rule", "x"), ("subsample", 0), ("alpha", -1),
                       ("theorem_lambda", 0)):
        name = f"{key}-{value}".replace(" ", "")
        yield pytest.param(_RUN, {**_TINY_RUN, key: value}, id=f"file-{name}")
        yield pytest.param(_RUN + ["--set", f"{key}={json.dumps(value)}"], _TINY_RUN,
                           id=f"set-{name}")
    for key, value in (("step", -1), ("J", -1), ("eval_split", "x"), ("direction", "x")):
        section = {**_TINY_RUN["stability"], key: value}
        yield pytest.param(_RUN, {**_TINY_RUN, "stability": section},
                           id=f"file-stability.{key}-{value}")
        yield pytest.param(_RUN + ["--set", f"stability.{key}={json.dumps(value)}"], _TINY_RUN,
                           id=f"set-stability.{key}-{value}")
    yield pytest.param(_RUN + ["--set", "validate=1"], _TINY_RUN, id="set-validate")
    yield pytest.param(_RUN + ["--set", 'stability={"J":"x"}'], _TINY_RUN,
                       id="set-stability-J-string")
    yield pytest.param(_RUN + ["--set", "stability.iterations=-1"], _TINY_RUN,
                       id="set-stability.iterations-negative")
    yield pytest.param(_RUN + ["--jobs", "0"], _TINY_RUN, id="flag-jobs-0")
    yield pytest.param(_RUN + ["--iterations", "0"], _TINY_RUN, id="flag-iterations-0")
    stab = {"task": "quadratic", "n": 10, "seeds": [0], "iterations": 3}
    yield pytest.param(["stability", "--config", "{cfg}"], {**stab, "seeds": 3},
                       id="stability-config-seeds-int")
    yield pytest.param(["stability", "--config", "{cfg}"], {**stab, "iterations": "a"},
                       id="stability-config-iterations-string")
    for key, value in (("input_dim", 0), ("hidden", 0), ("J", -1)):
        yield pytest.param(["stability", "--config", "{cfg}"], {**stab, key: value},
                           id=f"stability-config-{key}-{value}")


@pytest.mark.parametrize("argv, doc", _misuse_cases())
def test_config_misuse_exits_2_before_training(tmp_path, capsys, argv, doc):
    """The config file, `run` flags, `--set` and `stability --config` share
    one typed check: a bad value exits 2 with one line and trains nothing."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    assert main([a.replace("{cfg}", str(cfg)).replace("{out}", str(out)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (out / "cells").exists()


def test_stability_stage_uses_hidden(tmp_path, capsys):
    """A `small_mlp` run's stability stage trains the network width the run
    configures: its report equals `stability --config` with that `hidden`."""
    run = {"task": "small_mlp", "input_dim": 3, "hidden": 4, "n_grid": [20], "eta_grid": [0.1],
           "seeds": [0, 1], "iterations": 30, "subsample": 20,
           "stability": {"J": 2, "iterations": 20}}
    run_pipeline(config_from_dict(run), output_dir=tmp_path / "out")
    summary = json.loads((tmp_path / "out" / "report" / "summary.json").read_text())
    stab = {"task": "small_mlp", "input_dim": 3, "hidden": 4, "n": 20, "seeds": [0, 1],
            "J": 2, "iterations": 20, "step": 0.1}
    path = tmp_path / "stab.json"
    path.write_text(json.dumps(stab))
    capsys.readouterr()
    assert main(["stability", "--config", str(path)]) == 0
    assert [json.loads(capsys.readouterr().out)] == summary["stability"]


def test_cli_names_no_private_attribute_of_another_module():
    """`cli` uses other trajtopo modules only through their public names, so
    a module's private helpers and formats stay behind it."""
    path = Path(__file__).resolve().parents[1] / "src" / "trajtopo" / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.level == 1 or (node.module or "").split(".")[0] == "trajtopo")]
    modules = {a.asname or a.name for node in imports if node.module in (None, "trajtopo")
               for a in node.names}
    private = [f"{node.module}.{a.name}" for node in imports for a in node.names
               if a.name.startswith("_")]
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert modules and private == []


def test_help_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: trajtopo run")


def test_cell_and_summary_files_roundtrip_byte_identical(tmp_path):
    """Every record, constants file and summary stability entry that a run
    with stability writes reads back through its typed reader and writes
    the same bytes again."""
    out = tmp_path / "out"
    run_pipeline(small_config(), output_dir=out)
    records = sorted(out.glob("cells/*/record.json"))
    assert len(records) == 4
    for path in records:
        text = path.read_text()
        record = RunRecord.from_json(text)
        assert THEOREM_KEY in record.pmag
        assert record.to_json() == text
        constants_path = path.parent / "constants.json"
        constants = _load_constants(out, path.parent.name)
        assert json.dumps(asdict(constants), indent=2) + "\n" == constants_path.read_text()
    summary = json.loads((out / "report" / "summary.json").read_text())
    assert summary["stability"]
    for doc in summary["stability"]:
        report = from_json_object(StabilityReport, doc, "stability report")
        assert json.loads(report.to_json()) == doc


def test_readme_config_table_matches_dataclasses():
    """The README config table names exactly the config fields, and its
    `stability` row exactly the stability-section fields."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    keys = {k for key_cell, _ in rows for k in re.findall(r"`(\w+)`", key_cell)}
    assert keys == {f.name for f in fields(ExperimentConfig)}
    (stability_row,) = [meaning for key_cell, meaning in rows if key_cell.strip() == "`stability`"]
    assert set(re.findall(r"`(\w+)`", stability_row)) == {f.name for f in fields(StabilitySettings)}


def _perfbench_layers():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("perfbench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_perfbench_span_targets_resolve():
    """Every per-layer span of the benchmark tracer names a trajtopo
    function, so moving code cannot silently turn layer time into
    unattributed time."""
    layers = _perfbench_layers()
    assert layers.SPANS
    for _, target, _ in layers.SPANS:
        module_name, attr = target.split(":")
        module = importlib.import_module(f"trajtopo.{module_name}")
        assert callable(getattr(module, attr, None)), target


def test_traced_run_and_stage_chain(tmp_path, capsys):
    """A run and a traj-gen, distmat, lifetime-sum and pmag chain succeed
    under the benchmark tracer, whose counters read the wrapped functions'
    arguments and results by name; a signature they rely on cannot change
    unnoticed."""
    layers = _perfbench_layers()
    (tmp_path / "cfg.json").write_text(json.dumps(_TINY_RUN))
    chain = tmp_path / "chain"
    argvs = [
        ["run", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "run")],
        ["traj-gen", "--n", "8", "--eta", "0.1", "--iterations", "20", "--input-dim", "2",
         "--out", str(chain)],
        ["distmat", str(chain / "trajectory"), "--out", str(chain / "d"), "--subsample", "10"],
        ["lifetime-sum", str(chain / "d")],
        ["pmag", str(chain / "d"), "--scales", "1,100"],
    ]
    tracer = layers.Tracer()
    with tracer.installed():
        assert [main(argv) for argv in argvs] == [0] * len(argvs)
    assert "not found" not in capsys.readouterr().err
    for name in ("artifacts.bytes_written", "artifacts.bytes_read", "magnitude.solves",
                 "lifetime.mst_calls"):
        assert tracer.counts[name] > 0, name


def test_analytic_rows_follow_cell_smoothness(tmp_path):
    """With decaying steps the bounds stage adds closed-form rows when every
    cell's constants carry a smoothness G and the first step is below 1/G:
    the quadratic task's G = 1 at eta 0.05 qualifies, a stored G of 20 not."""
    out = tmp_path / "out"

    def bound_rows():
        run_pipeline(small_config(step_rule="decaying"), output_dir=out)
        rows = json.loads((out / "report" / "summary.json").read_text())["bounds"]
        assert len(rows) == 2
        return rows

    assert all(r["analytic_beta"] > 0 and "pmag_bound_analytic" in r for r in bound_rows())
    for path in out.glob("cells/*/constants.json"):
        path.write_text(json.dumps({**json.loads(path.read_text()), "smoothness": 20.0}))
    assert all(r["analytic_beta"] is None and "pmag_bound_analytic" not in r
               for r in bound_rows())


def test_alpha_outside_unit_interval_without_stability_section():
    """Only the bounds stage needs alpha in (0, 1]; without a stability
    section any nonnegative alpha is a valid lifetime-sum exponent."""
    for alpha in (0, 2.5):
        assert config_from_dict({"alpha": alpha}).alpha == alpha
