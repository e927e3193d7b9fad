import ast
import builtins
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from trajtopo import blas, bounds, geometry, magnitude, pipeline, stability, trainer
from trajtopo.analysis import THEOREM_KEY
from trajtopo.artifacts import (LossMatrix, RunRecord, Trajectory, read_record, record_json,
                                save_loss_matrix, save_trajectory)
from trajtopo.cli import build_parser, main
from trajtopo.errors import InvalidInputError, from_json_object
from trajtopo.geometry import DistanceMatrix, save_distance_matrix
from trajtopo.pipeline import (
    ExperimentConfig,
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
    stability={"J": 4, "iterations": 30, "converge_iterations": 0, "seeds": [0, 1]},
)


def small_config(**overrides) -> ExperimentConfig:
    doc = dict(SMALL)
    doc.update(overrides)
    return ExperimentConfig(**doc)


def tree_digest(root: Path, subdirs=("report", "cells")) -> dict[str, str]:
    """SHA-256 of every file under each of `subdirs`, a file itself included."""
    out = {}
    for sub in subdirs:
        for path in sorted([root / sub, *(root / sub).rglob("*")]):
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

    def test_rerun_skips_and_reproduces(self, tmp_path, monkeypatch):
        """A re-run of the same config trains nothing, runs no stability
        experiment and solves no magnitude system, and leaves every cell and
        report file as it was."""
        cfg = small_config()
        first = run_pipeline(cfg, output_dir=tmp_path / "out")
        before = tree_digest(tmp_path / "out")
        calls = []
        for module, name in ((stability, "run_stability_experiment"),
                             (magnitude, "positive_magnitude")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, _real=real, _name=name, **kwargs:
                                calls.append(_name) or _real(*args, **kwargs))
        second = run_pipeline(cfg, output_dir=tmp_path / "out")
        assert first.computed == 4 and first.skipped == 0
        assert second.computed == 0 and second.skipped == 4
        assert calls == []
        assert tree_digest(tmp_path / "out") == before

    def test_rerun_with_changed_alpha_matches_fresh_run(self, tmp_path):
        """A re-run under another alpha retrains its cells rather than keep
        the alpha=1 lifetime sums: every cell and report file equals a fresh
        alpha=0.5 run's."""
        run_pipeline(small_config(), output_dir=tmp_path / "rerun")
        result = run_pipeline(small_config(alpha=0.5), output_dir=tmp_path / "rerun")
        run_pipeline(small_config(alpha=0.5), output_dir=tmp_path / "fresh")
        assert result.computed == 4
        assert tree_digest(tmp_path / "rerun") == tree_digest(tmp_path / "fresh")

    @pytest.mark.parametrize(
        "section",
        [None, {"J": 0, "iterations": 30, "converge_iterations": 0, "seeds": [0, 1]}],
        ids=["without-stability-section", "zero-beta"],
    )
    def test_rerun_drops_theorem_output_a_fresh_run_lacks(self, tmp_path, section):
        """A re-run whose sample sizes get no bound row keeps no theorem-scale
        value, CSV or stability report of the run before it."""
        run_pipeline(small_config(), output_dir=tmp_path / "rerun")
        run_pipeline(small_config(stability=section), output_dir=tmp_path / "rerun")
        run_pipeline(small_config(stability=section), output_dir=tmp_path / "fresh")
        assert tree_digest(tmp_path / "rerun") == tree_digest(tmp_path / "fresh")

    def test_rerun_with_another_lambda_rewrites_only_theorem_pmag(self, tmp_path):
        """Each file under `cells/` has one writer: a re-run that changes only
        `theorem_lambda` leaves every record, trajectory and fingerprint as
        the cell stage wrote it, and rewrites every
        `theorem_pmag.json` at the new scale."""
        out = tmp_path / "out"

        def cell_files():
            return {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in out.glob("cells/*/*")}

        run_pipeline(small_config(), output_dir=out)
        before = cell_files()
        run_pipeline(small_config(theorem_lambda=2.0), output_dir=out)
        after = cell_files()
        assert {p.name for p in before} == {"record.json", "trajectory.json", "trajectory.bin",
                                            "fingerprint", pipeline.THEOREM_PMAG}
        assert after.keys() == before.keys()
        assert sorted(p for p in before if after[p] != before[p]) == sorted(
            out.glob(f"cells/*/{pipeline.THEOREM_PMAG}"))

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
        cfg = small_config(stability={"J": 0, "iterations": 20, "converge_iterations": 0})
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
        assert cfg.stability["J"] == 2

    def test_unknown_config_key_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown config keys"):
            config_from_dict({"optimizer": "adam"})

    def test_cell_id_stable(self):
        assert cell_id("quadratic", 10, 0.05, 1, 3) == "quadratic-n10-eta0p05-b1-s3"

    def test_numerical_failure_names_the_cell(self, tmp_path):
        from trajtopo.errors import NumericalFailureError

        # at so small a scale every similarity rounds to 1, so the factor of
        # that cell's similarity matrix fails
        cfg = small_config(n_grid=[10], seeds=[0], pmag_scales=[1e-300], stability=None)
        with pytest.raises(NumericalFailureError, match="quadratic-n10-eta0p05-b1-s0"):
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

    def test_report_rewrites_run_reports_byte_identical(self, tmp_path, capsys, monkeypatch):
        """`report` writes the run's `report/` again, in place or elsewhere,
        byte for byte, including stability, bounds and the first configured
        fixed scale (20.0, which sorts after 100.0 as a string). It trains,
        solves and writes nothing else, also after a re-run shrank the grid
        and left the cells of the larger one in place."""
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "task": "quadratic", "input_dim": 3, "n_grid": [20, 40], "eta_grid": [0.05],
            "seeds": [0, 1], "iterations": 40, "subsample": 30, "pmag_scales": [20.0, 100.0],
            "stability": {"J": 4, "iterations": 30, "converge_iterations": 0, "seeds": [0, 1]},
        }))
        out = tmp_path / "out"
        kept = ("cells", "stability", "run.json", "pipeline.log.jsonl")
        for n_grid in ("20,40", "20"):
            assert self.run_cli("run", "--config", cfg_path, "--set", f"n_grid=[{n_grid}]",
                                "--out", out) == 0
            before = tree_digest(out, subdirs=("report",))
            assert "report/grid_pmag_theorem_scale.csv" in before
            state = tree_digest(out, subdirs=kept)
            summary = json.loads((out / "report" / "summary.json").read_text())
            assert summary["bounds"] and summary["stability"]
            assert len(summary["runs"]) == 2 * len(n_grid.split(","))

            with monkeypatch.context() as patch:
                for module, name in ((trainer, "projected_sgd"), (trainer, "projected_sgd_stack"),
                                     (magnitude, "weighting"),
                                     (stability, "run_stability_experiment")):
                    patch.setattr(module, name, lambda *args, _name=name, **kwargs:
                                  pytest.fail(f"report called {_name}"))
                assert self.run_cli("report", out) == 0
                assert self.run_cli("report", out, "--out", tmp_path / "elsewhere") == 0
            assert tree_digest(out, subdirs=("report",)) == before
            elsewhere = tree_digest(tmp_path, subdirs=("elsewhere",))
            assert {k.replace("elsewhere/", "report/"): v for k, v in elsewhere.items()} == before
            assert tree_digest(out, subdirs=kept) == state

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
        """One config per n, each with its CSV row."""
        cfg, csv_path = tmp_path / "stab.json", tmp_path / "stab.csv"
        for n in (10, 20):
            cfg.write_text(json.dumps({
                "task": "quadratic", "n": n, "J": 2, "seeds": [0],
                "input_dim": 2, "iterations": 15, "step": 0.2,
            }))
            assert self.run_cli("stability", "--config", cfg, "--csv", csv_path) == 0
            lines = csv_path.read_text().strip().split("\n")
            assert lines[0].startswith("init_mode,eval_split,n,J")
            assert len(lines) == 2
            assert lines[1].startswith(f"random_init,train,{n},2,")

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

    def test_bound_samples_file_equals_samples_flag(self, tmp_path, capsys):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps([1.0, 2.5]))
        head = ["bound", "--theorem", "pmag", "--beta", 0.05, "--loss-bound", 1.0]
        assert self.run_cli(*head, "--samples-file", path) == 0
        from_file = capsys.readouterr().out
        assert self.run_cli(*head, "--samples", "1,2.5") == 0
        assert from_file == capsys.readouterr().out

    @pytest.mark.parametrize("alpha", [None, 0.5])
    def test_bound_ealpha_derives_k_from_lipschitz_and_n(self, capsys, alpha):
        """Without --k-const, K is `kn_alpha(n, L, B, alpha)`, alpha 1.0 unless given."""
        argv = ["bound", "--theorem", "ealpha", "--beta", 0.05, "--loss-bound", 2.0,
                "--samples", "3,4", "--lipschitz", 1.5, "--n", 100]
        assert self.run_cli(*argv, *([] if alpha is None else ["--alpha", alpha])) == 0
        k_const = bounds.kn_alpha(100, 1.5, 2.0, 1.0 if alpha is None else alpha)
        expected = bounds.ealpha_bound(0.05, 2.0, k_const, [3.0, 4.0])
        assert capsys.readouterr().out == record_json(expected)

    def test_set_reaches_a_missing_stability_section_and_takes_plain_text(self, tmp_path,
                                                                          capsys):
        """`--set stability.KEY` makes the section that a config file left out,
        and a value that is not JSON is taken as a string."""
        without = {k: v for k, v in _TINY_RUN.items() if k != "stability"}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(without | {"task": "small_mlp"}))
        assert self.run_cli("run", "--config", cfg, "--out", tmp_path / "o",
                            "--set", "stability.J=2", "--set", "task=quadratic") == 0
        assert load_config(tmp_path / "o" / "run.json") == config_from_dict(
            without | {"stability": {"J": 2}})

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

    def test_overflowing_iterate_exit_code(self, tmp_path, capsys):
        """A step so large that an iterate's squared norm overflows exits 3
        instead of writing a trajectory projected to zero."""
        assert self.run_cli(
            "traj-gen", "--task", "logistic_regression", "--n", 5, "--eta", 1e160,
            "--iterations", 3, "--input-dim", 2, "--out", tmp_path / "tg",
        ) == 3
        assert "iteration 1" in capsys.readouterr().err
        assert not (tmp_path / "tg" / "trajectory.bin").exists()

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

    def test_missing_output_dir_rejected(self, tmp_path, capsys):
        assert self.run_cli(
            "traj-gen", "--task", "quadratic", "--n", 5, "--eta", 0.1,
            "--iterations", 10, "--input-dim", 2,
        ) == 2

    def test_set_overrides(self, tmp_path, capsys):
        assert self.run_cli(
            "run", "--set", "task=quadratic", "--set", "n_grid=[8]", "--set", "eta_grid=[0.1]",
            "--set", "seeds=[0]", "--set", "iterations=12", "--set", "subsample=10",
            "--set", "input_dim=2", "--set", 'stability={"J":2,"iterations":10,"converge_iterations":0}',
            "--out", tmp_path / "o",
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"] == 1
        assert (tmp_path / "o" / "report" / "stability.csv").exists()

    def test_set_rejects_unknown_key(self, tmp_path, capsys):
        assert self.run_cli(
            "run", "--set", "task=quadratic", "--set", "momentum=0.9", "--out", tmp_path / "o",
        ) == 2


def _json_file(name: str, doc):
    def prepare(out: Path) -> None:
        (out / name).write_text(json.dumps(doc))

    return prepare


def _raw_file(name: str, data: bytes):
    def prepare(out: Path) -> None:
        (out / name).write_bytes(data)

    return prepare


def _directory(name: str):
    def prepare(out: Path) -> None:
        (out / name).mkdir()

    return prepare


# a grid that trains in well under a second, should a check ever let it through;
# its stability estimate is positive, so it has a bound row
_TINY_RUN = {
    "task": "quadratic", "input_dim": 2, "n_grid": [8], "eta_grid": [0.1], "seeds": [0],
    "iterations": 5, "subsample": 5,
    "stability": {"J": 2, "seeds": [0], "iterations": 20, "converge_iterations": 0},
}


def _finished_run(pattern: str, edit):
    """A finished `_TINY_RUN` in `out`, with its config in `out/cfg.json`;
    `edit` changes the JSON object of the first file matching `pattern` (the
    text of a file that is not `.json`), or returns the text or bytes that
    replace that file. An `edit` of None deletes the file."""
    def prepare(out: Path) -> None:
        (out / "cfg.json").write_text(json.dumps(_TINY_RUN))
        run_pipeline(config_from_dict(json.loads(json.dumps(_TINY_RUN))), output_dir=out)
        path = sorted(out.glob(pattern))[0]
        if edit is None:
            path.unlink()
            return
        doc = json.loads(path.read_text()) if path.suffix == ".json" else path.read_text()
        text = edit(doc)
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
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
_TINY_CELL = "{out}/cells/quadratic-n8-eta0p1-b1-s0"
_TINY_STABILITY = "{out}/stability/" + pipeline._fingerprint(
    asdict(config_from_dict(_TINY_RUN).stability_configs()[0])) + ".json"
_TRAJ_GEN = ["traj-gen", "--n", "5", "--eta", "0.1", "--out", "{out}/tg"]
_BOUND_SAMPLES_FILE = ["bound", "--theorem", "pmag", "--beta", "0.05", "--loss-bound", "1",
                       "--samples-file", "{out}/samples.json"]
_BOUND_PMAG = ["bound", "--theorem", "pmag", "--beta", "0.05", "--loss-bound", "1",
               "--samples", "1"]
_STABILITY_REST = {"task": "quadratic", "seeds": [0], "input_dim": 2, "iterations": 5}


@pytest.mark.parametrize(
    "argv, prepare, message",
    [
        (["bound", "--theorem", "pmag", "--beta", "0.05", "--loss-bound", "1"], None,
         "one of the arguments --samples --samples-file is required"),
        (_BOUND_SAMPLES_FILE + ["--samples", "3"], _json_file("samples.json", [1.0]),
         "argument --samples: not allowed with argument --samples-file"),
        (["bound", "--theorem", "pmag", "--loss-bound", "1", "--samples", "1"], None,
         "one of the arguments --beta --stability-report is required"),
        (["bound", "--theorem", "pmag", "--beta", "0.1", "--stability-report", "{out}/report.json",
          "--loss-bound", "1", "--samples", "1"], _json_file("report.json", {"mean": 0.2}),
         "argument --stability-report: not allowed with argument --beta"),
        (["pmag", "{out}/d"], _artifacts(),
         "one of the arguments --scales --theorem-scale is required"),
        (["pmag", "{out}/d", "--scales", "100", "--theorem-scale", "1,1,1,0.001"], _artifacts(),
         "argument --theorem-scale: not allowed with argument --scales"),
        (["report", "{out}"], None, "no {out}/run.json; re-run `trajtopo run`"),
        (["report", "{out}"], _finished_run("run.json", None),
         "no {out}/run.json; re-run `trajtopo run`"),
        (["run", "--set", "n_grid=[8,8]", "--out", "{out}"], None,
         "config: n_grid must be a nonempty list of distinct values, got [8, 8]"),
        (["run", "--set", "eta_grid=[0.1,0.10]", "--out", "{out}"], None,
         "config: eta_grid must be a nonempty list of distinct values, got [0.1, 0.1]"),
        (["stability", "--config", "{out}/stab.json"],
         _json_file("stab.json", {"n": "abc", **_STABILITY_REST}),
         "stability config 'n' must be int, got 'abc'"),
        (["stability", "--config", "{out}/stab.json"],
         _json_file("stab.json", {"n": 2.5, **_STABILITY_REST}),
         "stability config 'n' must be int, got 2.5"),
        (["stability", "--config", "{out}/stab.json"],
         _json_file("stab.json", {"n": [None], **_STABILITY_REST}),
         "stability config 'n' must be int, got [None]"),
        (["stability", "--config", "{out}/stab.json"],
         _json_file("stab.json", {"n": [], **_STABILITY_REST}),
         "stability config 'n' must be int, got []"),
        # J = n replaces every training sample, so no train probe survives
        (["stability", "--config", "{out}/stab.json"],
         _json_file("stab.json", {"n": 5, "J": 5, **_STABILITY_REST}),
         "J = 5 must be below n = 5 with eval_split 'train'"),
        # the validation probe set is pool samples J to J + 500 of a 600-sample pool
        (["stability", "--config", "{out}/stab.json"],
         _json_file("stab.json", {"n": 600, "J": 101, "eval_split": "validation",
                                  **_STABILITY_REST}),
         "pool too small for the validation probe set"),
        (["bound", "--theorem", "pmag", "--beta", "0.05", "--loss-bound", "1",
          "--samples-file", "{out}/samples.json"], _json_file("samples.json", ["a"]),
         "samples file"),
        (["bound", "--theorem", "pmag", "--stability-report", "{out}/report.json",
          "--loss-bound", "1", "--samples", "1"], _json_file("report.json", {"n": 5}),
         "'mean'"),
        (["bound", "--theorem", "pmag", "--stability-report", "{out}/report.json",
          "--loss-bound", "1", "--samples", "1"], _json_file("report.json", {"mean": "x"}),
         "'mean'"),
        (["run", "--set", "jobs=x", "--out", "{out}"], None, "config 'jobs' must be int, got 'x'"),
        (["traj-gen", "--n", "x", "--eta", "0.1"], None, "argument --n: invalid int value"),
        (["pmag", "{out}/D", "--solver", "nope", "--scales", "1"], None,
         "unrecognized arguments: --solver nope"),
        (["bound", "--loss-bound", "1", "--samples", "1"], None,
         "the following arguments are required: --theorem"),
        (_TRAJ_GEN + ["--input-dim", "0"], None, "input_dim and hidden must be >= 1"),
        (_TRAJ_GEN + ["--iterations", "0"], None, "iteration counts out of range"),
        (_TRAJ_GEN + ["--task", "foo"], None, "argument --task: invalid choice: 'foo'"),
        (["report", "{out}"], _finished_run("run.json", lambda d: d.update(pmag_scales=["a"])),
         "config {out}/run.json 'pmag_scales' must be list[float], got ['a']"),
        (["report", "{out}"], _finished_run("run.json", lambda d: d.update(pmag_scales=[])),
         "config {out}/run.json: pmag_scales must be a nonempty list of distinct values, got []"),
        (["report", "{out}"], _finished_run("run.json", lambda d: d.update(task=5)),
         "config {out}/run.json 'task' must be str, got 5"),
        (["report", "{out}"], _finished_run("stability/*.json", lambda d: d.pop("mean")),
         f"stability report {_TINY_STABILITY} lacks ['mean']"),
        (["report", "{out}"], _finished_run("cells/*/record.json", lambda d: d.pop("gen_gap")),
         "lacks ['gen_gap']"),
        (_RERUN, _finished_run("cells/*/record.json", lambda d: d.pop("gen_gap")),
         "lacks ['gen_gap']"),
        (_RERUN, _finished_run("cells/*/record.json", lambda d: d.pop("lipschitz")),
         "lacks ['lipschitz']"),
        (["report", "{out}"],
         _finished_run("cells/*/record.json", lambda d: d.update(gen_gap=None)),
         "record.json 'gen_gap' must be float, got None"),
        (_RERUN, _finished_run("cells/*/record.json", lambda d: d.update(loss_bound="x")),
         "record.json 'loss_bound' must be float, got 'x'"),
        (["report", "{out}"], _finished_run("cells/*/record.json", lambda d: d.update(lipschitz=0)),
         "record.json: lipschitz and loss_bound must be positive"),
        (["report", "{out}"], _finished_run("stability/*.json", lambda d: d.update(mean=None)),
         f"stability report {_TINY_STABILITY} 'mean' must be float, got None"),
        (["report", "{out}"],
         _finished_run("cells/*/record.json", lambda d: d.update(e_alpha=-1.0)),
         "record.json: complexity statistics must be nonnegative"),
        (["report", "{out}"], _finished_run("cells/*/record.json", lambda d: "{not json"),
         "record.json: Expecting property name enclosed in double quotes"),
        (["report", "{out}"], _finished_run("cells/*/record.json", lambda d: b"\xff{"),
         f"malformed run record {_TINY_CELL}/record.json: 'utf-8' codec can't decode"),
        (_RERUN, _finished_run("stability/*.json", lambda d: "{not json"),
         f"malformed stability report {_TINY_STABILITY}: Expecting property name"),
        (_RERUN, _finished_run("stability/*.json", lambda d: b"\xff{"),
         f"malformed stability report {_TINY_STABILITY}: 'utf-8' codec can't decode"),
        (_RERUN, _finished_run("stability/*.json", lambda d: d.update(mean="x")),
         f"stability report {_TINY_STABILITY} 'mean' must be float, got 'x'"),
        (_RERUN, _finished_run("stability/*.json", lambda d: d.pop("beta_hats")),
         f"stability report {_TINY_STABILITY} lacks ['beta_hats']"),
        (_RERUN, _finished_run("cells/*/fingerprint", lambda text: text[:20]),
         f"cell fingerprint {_TINY_CELL}/fingerprint must hold one SHA-256 hex digest"),
        (_RERUN, _finished_run("cells/*/fingerprint", lambda text: b"\xff" * 64 + b"\n"),
         f"cell fingerprint {_TINY_CELL}/fingerprint must hold one SHA-256 hex digest"),
        (_RERUN, _finished_run("cells/*/theorem_pmag.json", lambda d: "[1.0"),
         f"malformed theorem PMag {_TINY_CELL}/theorem_pmag.json: Expecting"),
        (_RERUN, _finished_run("cells/*/theorem_pmag.json", lambda d: d.update(scale="x")),
         f"theorem PMag {_TINY_CELL}/theorem_pmag.json 'scale' must be float, got 'x'"),
        (_RERUN, _finished_run("cells/*/theorem_pmag.json", lambda d: d.pop("scale")),
         f"theorem PMag {_TINY_CELL}/theorem_pmag.json lacks ['scale']"),
        (_RERUN, _finished_run("cells/*/theorem_pmag.json", lambda d: d.pop("pmag")),
         f"theorem PMag {_TINY_CELL}/theorem_pmag.json lacks ['pmag']"),
        (["report", "{out}"], _finished_run("stability/*.json", None),
         f"{_TINY_STABILITY} is missing or from another config"),
        (["report", "{out}"], _finished_run("cells/*/fingerprint", lambda text: "0" * 64 + "\n"),
         f"{_TINY_CELL}/fingerprint is missing or from another config"),
        (["report", "{out}"], _finished_run("cells/*/theorem_pmag.json", None),
         f"{_TINY_CELL}/theorem_pmag.json is missing or from another config"),
        (["report", "{out}"], _finished_run("cells/*/record.json", None),
         f"{_TINY_CELL}/record.json is missing or from another config"),
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
        (["pmag", "{out}/d", "--scales", "nan"], _artifacts(), "scales must be finite"),
        (["pmag", "{out}/d", "--scales", "1,inf"], _artifacts(), "scales must be finite"),
        (["pmag", "{out}/d", "--scales", "1e400"], _artifacts(), "scales must be finite"),
        (["pmag", "{out}/d", "--theorem-scale", "1,nan,1,0.5"], _artifacts(),
         "L must be finite and positive, got nan"),
        (["distmat", "{out}/t", "--out", "{out}/d2", "--dedup-eps", "nan"], _artifacts(),
         "eps must be finite and >= 0, got nan"),
        (["distmat", "{out}/t", "--out", "{out}/d2", "--dedup-eps", "inf"], _artifacts(),
         "eps must be finite and >= 0, got inf"),
        (["lifetime-sum", "{out}/d", "--alpha", "nan"], _artifacts(),
         "alpha must be finite and >= 0, got nan"),
        (["lifetime-sum", "{out}/d", "--alpha", "inf"], _artifacts(),
         "alpha must be finite and >= 0, got inf"),
        (["distmat", "{out}/t", "--out", "{out}/d2"],
         _artifacts({"t": lambda d: d.update(schema_version=2)}),
         "manifest {out}/t.json: unsupported schema_version 2, expected 1"),
        (["distmat", "{out}/t", "--out", "{out}/d2"],
         _artifacts({"t": lambda d: d["metadata"].update(iteration_ids="1,2")}),
         "artifact {out}/t: iteration_ids length must equal the number of rows"),
        (["stability", "{out}/a", "{out}/b"], _loss_matrices(lambda d: d["metadata"].pop("split")),
         "artifact {out}/a: unknown split None"),
        (_BOUND_SAMPLES_FILE, _raw_file("samples.json", b"\xff[1]"),
         "malformed samples file {out}/samples.json: 'utf-8' codec can't decode"),
        (_BOUND_SAMPLES_FILE, _raw_file("samples.json", b"[1,"),
         "malformed samples file {out}/samples.json: Expecting value"),
        (["run", "--config", "{out}/cfg", "--out", "{out}/run"], _directory("cfg"),
         "Is a directory: '{out}/cfg'"),
        (_BOUND_SAMPLES_FILE, _directory("samples.json"),
         "Is a directory: '{out}/samples.json'"),
        (["run", "--config", "{out}/cfg.json", "--out", "{out}/taken"],
         lambda out: (_json_file("cfg.json", _TINY_RUN)(out), (out / "taken").write_text("")),
         "File exists: '{out}/taken'"),
        (["stability", "{out}/a", "{out}/b", "--config", "{out}/stab.json", "--csv",
          "{out}/s.csv"], _loss_matrices(lambda d: None),
         "--config and --csv not read with loss-matrix artifacts"),
        (["stability", "{out}/a", "{out}/b", "--csv", "{out}/s.csv"], _loss_matrices(lambda d: None),
         "--csv not read with loss-matrix artifacts"),
        (["stability", "--config", "{out}/stab.json", "--symmetrized"],
         _json_file("stab.json", {"n": 5, **_STABILITY_REST}),
         "--symmetrized not read with --config; set its 'direction'"),
        (_BOUND_PMAG + ["--k-const", "3"], None, "--k-const not read by --theorem pmag"),
        (_BOUND_PMAG + ["--lipschitz", "2"], None, "--lipschitz not read by --theorem pmag"),
        (_BOUND_PMAG + ["--n", "100"], None, "--n not read by --theorem pmag"),
        (_BOUND_PMAG + ["--alpha", "0.5"], None, "--alpha not read by --theorem pmag"),
        (_BOUND_PMAG + ["--n", "0", "--alpha", "0"], None,
         "--n and --alpha not read by --theorem pmag"),
        (["bound", "--theorem", "ealpha", "--beta", "0.05", "--loss-bound", "1", "--samples", "1",
          "--k-const", "3", "--lambda", "2"], None, "--lambda not read by --theorem ealpha"),
        (["pmag", "{out}/d", "--scales", "1,x"], _artifacts(),
         "expected comma-separated floats, got '1,x'"),
        (["run", "--set", "foo", "--out", "{out}"], None, "--set expects key=value, got 'foo'"),
        (["run", "--config", "{out}/cfg.json", "--set", "stability.J=2", "--out", "{out}"],
         _json_file("cfg.json", {"stability": 3}), "stability section must be a JSON object"),
        (["run", "--set", "task=quadratic", "--set", "n_grid=[4,30]", "--set", "eta_grid=[0.1]",
          "--set", "input_dim=2", "--set", "stability.J=10", "--out", "{out}/run"], None,
         "config: stability section: replacement count 10 must lie in [0, n = 4]"),
        (["pmag", "{out}/d", "--theorem-scale", "1,2,3"], _artifacts(),
         "--theorem-scale expects lambda,L,B,beta"),
        (["stability", "{out}/a", "{out}/b", "{out}/c"], None,
         "pass exactly two loss-matrix artifact stems"),
        (["stability"], None, "pass --config or two loss-matrix artifacts"),
        (["bound", "--theorem", "ealpha", "--beta", "0.05", "--loss-bound", "1", "--samples", "1",
          "--n", "100"], None, "pass --k-const, or --lipschitz with --n"),
        (_BOUND_SAMPLES_FILE, _json_file("samples.json", {"samples": [1.0]}),
         "samples file {out}/samples.json must be a JSON list of numbers"),
        (["run", "--set", "iterations=1"], None,
         "no output directory given; pass --out or set output_dir"),
        (["run", "--n-grid", "8", "--jobs", "2", "--out", "{out}"], None,
         "unrecognized arguments: --n-grid 8 --jobs 2"),
        (["traj-gen", "--n", "5", "--eta", "0.1"], None,
         "the following arguments are required: --out"),
        (["bound", "--theorem", "pmag", "--beta", "nan", "--loss-bound", "1", "--samples", "2"],
         None, "beta must be finite and positive, got nan"),
        (["bound", "--theorem", "pmag", "--beta", "1", "--loss-bound", "1", "--samples", "nan"],
         None, "magnitude samples must be finite and >= 1, got nan"),
        # PMag = 1, the least positive magnitude of a nonempty space, gives 3.0
        (["bound", "--theorem", "pmag", "--beta", "1", "--loss-bound", "1", "--samples", "0.5"],
         None, "magnitude samples must be finite and >= 1, got 0.5"),
        (["bound", "--theorem", "ealpha", "--beta", "1", "--loss-bound", "1", "--samples", "1",
          "--k-const", "2", "--lipschitz", "5", "--n", "10", "--alpha", "0.5"], None,
         "--lipschitz and --n and --alpha not read with --k-const"),
        (["distmat", "{out}/t", "--out", "{out}/d2", "--seed", "7"], _artifacts(),
         "--seed not read without --subsample"),
        (["pmag", "{out}/d", "--theorem-scale", "1,1,1,inf"], _artifacts(),
         "beta must be finite and positive, got inf"),
        (["run", "--set", "seeds=[0,18446744073709551616]", "--out", "{out}/run"], None,
         "config: seed 18446744073709551616 must lie in [0, 2**64)"),
        (_TRAJ_GEN + ["--seed", "-1"], None, "config: seed -1 must lie in [0, 2**64)"),
        # the 4-point trajectory is kept whole, so the seed draws nothing
        (["distmat", "{out}/t", "--out", "{out}/d2", "--subsample", "5", "--seed", "-1"],
         _artifacts(), "seed -1 must lie in [0, 2**64)"),
    ],
    ids=["bound-without-samples", "bound-samples-and-samples-file", "bound-without-beta",
         "bound-beta-and-stability-report", "pmag-without-scales", "pmag-scales-and-theorem-scale",
         "report-without-records", "report-without-run-json",
         "run-n-grid-repeated", "run-eta-grid-repeated",
         "stability-n-string", "stability-n-float", "stability-n-null-list",
         "stability-n-empty-list", "stability-train-probes-all-injected",
         "stability-validation-probes-above-pool", "bound-samples-not-numbers",
         "bound-report-without-mean",
         "bound-report-mean-string", "run-jobs-not-int", "traj-gen-n-not-int",
         "pmag-unknown-solver", "bound-without-theorem", "traj-gen-input-dim-0",
         "traj-gen-iterations-0", "traj-gen-unknown-task", "report-run-json-scales-strings",
         "report-run-json-scales-empty", "report-run-json-task-int",
         "report-stability-cache-without-mean", "report-record-without-gen-gap",
         "rerun-record-without-gen-gap", "rerun-record-without-lipschitz",
         "report-record-gen-gap-null", "rerun-record-loss-bound-string",
         "report-record-lipschitz-zero",
         "report-stability-cache-mean-null", "report-record-e-alpha-negative",
         "report-record-not-json", "report-record-not-utf8", "rerun-stability-cache-not-json",
         "rerun-stability-cache-not-utf8", "rerun-stability-cache-mean-string",
         "rerun-stability-cache-without-beta-hats", "rerun-fingerprint-truncated",
         "rerun-fingerprint-not-utf8", "rerun-theorem-pmag-not-json",
         "rerun-theorem-pmag-string", "rerun-theorem-pmag-without-scale",
         "rerun-theorem-pmag-without-pmag",
         "report-stability-cache-deleted", "report-fingerprint-mismatch",
         "report-theorem-pmag-deleted", "report-record-deleted",
         "distmat-ids-not-integers",
         "distmat-ids-missing", "distmat-subsample-0", "lifetime-sum-shape-string",
         "pmag-ids-not-integers", "distmat-wrong-role", "pmag-scale-nan", "pmag-scale-inf",
         "pmag-scale-1e400", "pmag-theorem-scale-nan", "distmat-dedup-eps-nan",
         "distmat-dedup-eps-inf", "lifetime-sum-alpha-nan", "lifetime-sum-alpha-inf", "distmat-schema-version-2",
         "distmat-ids-wrong-length", "stability-losses-without-split",
         "bound-samples-file-not-utf8", "bound-samples-file-not-json", "run-config-directory",
         "bound-samples-file-directory", "run-out-existing-file",
         "stability-losses-with-config-and-csv", "stability-losses-with-csv",
         "stability-config-with-symmetrized", "bound-pmag-with-k-const",
         "bound-pmag-with-lipschitz", "bound-pmag-with-n", "bound-pmag-with-alpha",
         "bound-pmag-with-zero-n-and-alpha", "bound-ealpha-with-lambda",
         "pmag-scales-not-numbers", "run-set-without-equals", "run-set-stability-key-over-int",
         "run-stability-j-above-an-n",
         "pmag-theorem-scale-three-values", "stability-three-losses", "stability-without-input",
         "bound-ealpha-n-without-lipschitz", "bound-samples-file-object", "run-without-out",
         "run-removed-flags", "traj-gen-without-out", "bound-beta-nan", "bound-samples-nan",
         "bound-samples-below-1", "bound-k-const-with-lipschitz-n-alpha",
         "distmat-seed-without-subsample",
         "pmag-theorem-scale-beta-inf", "run-seed-2-to-the-64", "traj-gen-seed-negative",
         "distmat-seed-negative"],
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


def test_report_after_run_json_drops_stability_matches_a_run(tmp_path, capsys):
    """`report` on a finished run whose `run.json` then drops its stability
    section writes only its `report/`, the same one that a `run` of that
    config writes into a copy of the directory."""
    out, copy = tmp_path / "out", tmp_path / "copy"
    out.mkdir()
    _finished_run("run.json", lambda d: d.update(stability=None))(out)
    shutil.copytree(out, copy)
    kept = tree_digest(out, ("cells", "stability"))
    assert main(["report", str(out)]) == 0
    assert tree_digest(out, ("cells", "stability")) == kept
    assert main(["run", "--config", str(copy / "run.json"), "--out", str(copy)]) == 0
    assert tree_digest(out, ("report",)) == tree_digest(copy, ("report",))
    assert not (out / "report" / "grid_pmag_theorem_scale.csv").exists()


def test_reports_remove_only_the_names_a_run_owns(tmp_path):
    """`run` and `report --out` remove a report file only under a name that
    a run writes: an unrelated `grid_*.csv` beside the reports survives."""
    out, mine = tmp_path / "out", tmp_path / "mine"
    for report_dir in (out / "report", mine):
        report_dir.mkdir(parents=True)
        (report_dir / "grid_notes.csv").write_text("notes\n")
    (tmp_path / "cfg.json").write_text(json.dumps(_TINY_RUN))
    assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 0
    assert main(["report", str(out), "--out", str(mine)]) == 0
    for report_dir in (out / "report", mine):
        assert (report_dir / "grid_notes.csv").read_text() == "notes\n"
        assert (report_dir / "grid_e_alpha.csv").exists()


@pytest.mark.parametrize("cut", [
    lambda path: path.parent.name == "stability",
    lambda path: path.name.startswith(pipeline.THEOREM_PMAG),
], ids=["stability-report", "theorem-pmag"])
def test_a_stored_file_cut_short_does_not_wedge_the_next_run(tmp_path, capsys, monkeypatch, cut):
    """A run interrupted halfway through writing a stored stability report
    or theorem-scale PMag leaves no cut file under the stored name: the
    next run exits 0 and writes the `report/` of a fresh run."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "cfg.json").write_text(json.dumps(_TINY_RUN))
    argv = [a.format(out=out) for a in _RERUN]
    write_bytes = Path.write_bytes

    def interrupted(self, data):
        if cut(self):
            write_bytes(self, data[: len(data) // 2])
            raise KeyboardInterrupt
        return write_bytes(self, data)

    with monkeypatch.context() as patched:
        patched.setattr(Path, "write_bytes", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    assert main(argv) == 0
    run_pipeline(config_from_dict(_TINY_RUN), output_dir=tmp_path / "fresh")
    assert tree_digest(out, ("report",)) == tree_digest(tmp_path / "fresh", ("report",))


def _as_older_directory(out: Path, cfg: ExperimentConfig, theorem_in_record: bool) -> None:
    """Give the cells of a finished run of `cfg` the layout of earlier
    versions: each kept its L and B in `constants.json` (with the task's G,
    a `source` and a `probes` count), not in `record.json`, under a
    fingerprint without the cell layout. With `theorem_in_record`, the
    layout before that also kept the theorem-scale PMag in `record.json`
    under `THEOREM_KEY` and its scale in `theorem_scale.json`."""
    shaping = {f.name: getattr(cfg, f.name) for f in fields(cfg)
               if f.name not in pipeline.UNFINGERPRINTED}
    for record_path in out.glob("cells/*/record.json"):
        record = json.loads(record_path.read_text())
        constants = {"lipschitz": record.pop("lipschitz"), "loss_bound": record.pop("loss_bound"),
                     "smoothness": 1.0, "source": "empirical", "probes": 60}
        (record_path.parent / "constants.json").write_text(json.dumps(constants, indent=2) + "\n")
        theorem_path = record_path.parent / pipeline.THEOREM_PMAG
        if theorem_in_record and theorem_path.exists():
            theorem = json.loads(theorem_path.read_text())
            record["pmag"][THEOREM_KEY] = theorem["pmag"]
            scale = json.dumps({"scale": theorem["scale"]}) + "\n"
            (record_path.parent / "theorem_scale.json").write_text(scale)
            theorem_path.unlink()
        record_path.write_text(json.dumps(record, indent=2) + "\n")
        cell = {k: record[k] for k in ("n", "eta", "batch", "seed")}
        (record_path.parent / "fingerprint").write_text(
            pipeline._fingerprint(shaping | cell) + "\n")
    shutil.rmtree(out / "report")


@pytest.mark.parametrize("section", [SMALL["stability"], None],
                         ids=["with-stability", "without-stability"])
def test_directory_of_an_older_version_migrates_on_its_next_run(tmp_path, capsys, section):
    """A directory of an older layout, whose records lack L and B, is never
    half read: `report` misses once, naming a cell's fingerprint. A `run`
    then trains every cell again and writes the `report/` of a fresh run,
    and `report` hits after it. A theorem-scale value stored in an older
    record never reaches a report: without a stability section no theorem
    CSV appears."""
    cfg = small_config(stability=section)
    run_pipeline(cfg, output_dir=tmp_path / "fresh")
    for theorem_in_record in (False, True):
        old = tmp_path / f"old-{theorem_in_record}"
        run_pipeline(small_config(), output_dir=old)
        _as_older_directory(old, cfg, theorem_in_record)
        capsys.readouterr()
        assert main(["report", str(old)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert re.search(r"cells/[^/]+/fingerprint is missing or from another config", err)
        assert run_pipeline(cfg, output_dir=old).computed == 4
        assert tree_digest(old, ("report",)) == tree_digest(tmp_path / "fresh", ("report",))
        assert main(["report", str(old), "--out", str(tmp_path / "again")]) == 0
        assert (old / "report" / "grid_pmag_theorem_scale.csv").exists() == (section is not None)


# every argument the CLI reads a file through; {p} is the file, {out} holds
# the other inputs
_READ_PATHS = {
    "run-config": (["run", "--config", "{p}", "--out", "{out}/run"], "cfg.json"),
    "stability-config": (["stability", "--config", "{p}"], "stab.json"),
    "bound-samples-file": (_BOUND_SAMPLES_FILE, "samples.json"),
    "bound-stability-report": (["bound", "--theorem", "pmag", "--stability-report", "{p}",
                                "--loss-bound", "1", "--samples", "1"], "report.json"),
    "distmat-trajectory": (["distmat", "{out}/t", "--out", "{out}/d"], "t.json"),
    "lifetime-sum-distmat": (["lifetime-sum", "{out}/t"], "t.json"),
    "pmag-distmat": (["pmag", "{out}/t", "--scales", "1"], "t.json"),
    "stability-losses": (["stability", "{out}/t", "{out}/t"], "t.json"),
    "report-runs-dir": (["report", "{p}"], "runs"),
}
_BAD_FILES = {
    "missing": lambda p: None,
    "directory": lambda p: p.mkdir(),
    "not-utf8": lambda p: p.write_bytes(b"\xff{"),
    "not-json": lambda p: p.write_text("{x"),
}
# every argument the CLI writes a directory or a file to
_WRITE_PATHS = {
    "run-out": ["run", "--config", "{out}/cfg.json", "--out", "{p}"],
    "traj-gen-out": _TRAJ_GEN[:-1] + ["{p}"],
    "distmat-out": ["distmat", "{out}/t", "--out", "{p}"],
    "stability-csv": ["stability", "--config", "{out}/stab.json", "--csv", "{p}"],
    "report-out": ["report", "{out}", "--out", "{p}"],
}


def _path_misuse_cases():
    for name, (argv, file_name) in _READ_PATHS.items():
        for kind, make in _BAD_FILES.items():
            yield pytest.param(argv, file_name, make, id=f"{name}-{kind}")
    for name, argv in _WRITE_PATHS.items():
        yield pytest.param(argv, "taken/x", lambda p: p.parent.write_text(""),
                           id=f"{name}-below-a-file")
    for name in ("run-out", "traj-gen-out", "report-out"):
        yield pytest.param(_WRITE_PATHS[name], "x", lambda p: p.write_text(""),
                           id=f"{name}-a-file")
    yield pytest.param(_WRITE_PATHS["stability-csv"], "x", lambda p: p.mkdir(),
                       id="stability-csv-a-directory")
    yield pytest.param(_WRITE_PATHS["distmat-out"], "x", lambda p: p.with_suffix(".json").mkdir(),
                       id="distmat-out-manifest-a-directory")


@pytest.mark.parametrize("argv, file_name, make", _path_misuse_cases())
def test_cli_path_misuse_exits_2_naming_the_path(tmp_path, capsys, argv, file_name, make):
    out = tmp_path / "out"
    out.mkdir()
    (out / "stab.json").write_text(json.dumps({"n": 8, **_STABILITY_REST}))
    save_trajectory(Trajectory(points=np.arange(8.0).reshape(4, 2), iteration_ids=[0, 1, 2, 3]),
                    out / "t")
    if argv[:2] == ["report", "{out}"]:
        _finished_run("run.json", lambda doc: doc)(out)
    else:
        (out / "cfg.json").write_text(json.dumps(_TINY_RUN))
    path = out / file_name
    path.unlink(missing_ok=True)
    make(path)
    capsys.readouterr()
    assert main([a.format(out=out, p=path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert str(path) in err
    assert "Traceback" not in err
    # a write that fails takes its `<path>.partial` with it
    assert not list(out.rglob("*.partial"))


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
    for key in pipeline.STABILITY_SECTION_KEYS:
        value = _WRONG_TYPED_STABILITY[key]
        section = {**_TINY_RUN["stability"], key: value}
        yield pytest.param(_RUN, {**_TINY_RUN, "stability": section}, id=f"file-stability.{key}")
        yield pytest.param(_RUN + ["--set", f"stability.{key}={json.dumps(value)}"], _TINY_RUN,
                           id=f"set-stability.{key}")
    yield pytest.param(_RUN, {**_TINY_RUN, "n_grid": [20.5]}, id="file-n_grid-float")
    for key, value in (("input_dim", 0), ("hidden", 0), ("lipschitz", -1), ("loss_bound", 0),
                       ("alpha", 2), ("alpha", 0), ("eta_grid", [0.1, -1]), ("batch_grid", [1, 0]),
                       ("n_grid", [0]), ("step_rule", "x"), ("subsample", 0), ("alpha", -1),
                       ("theorem_lambda", 0),
                       # JSON reads NaN and Infinity, which no range check may let through
                       ("pmag_scales", [math.inf]), ("theorem_lambda", math.inf),
                       # a duplicated scale would be solved twice in every cell
                       ("pmag_scales", [100, 100.0, 1]),
                       ("loss_bound", math.inf), ("lipschitz", math.nan), ("radius", math.nan),
                       ("alpha", math.nan),
                       # a seed outside 64 bits would draw the stream of another
                       ("seeds", [0, 2**64]), ("seeds", [-1])):
        name = f"{key}-{value}".replace(" ", "")
        yield pytest.param(_RUN, {**_TINY_RUN, key: value}, id=f"file-{name}")
        yield pytest.param(_RUN + ["--set", f"{key}={json.dumps(value)}"], _TINY_RUN,
                           id=f"set-{name}")
    for key, value in (("step", -1), ("J", -1), ("eval_split", "x"), ("direction", "x"),
                       ("step", math.nan), ("seeds", [2**64])):
        section = {**_TINY_RUN["stability"], key: value}
        yield pytest.param(_RUN, {**_TINY_RUN, "stability": section},
                           id=f"file-stability.{key}-{value}")
        yield pytest.param(_RUN + ["--set", f"stability.{key}={json.dumps(value)}"], _TINY_RUN,
                           id=f"set-stability.{key}-{value}")
    # 1e400 overflows to infinity as a JSON number, 1 followed by 400 zeros does not
    yield pytest.param(_RUN + ["--set", "theorem_lambda=1e400"], _TINY_RUN,
                       id="set-theorem_lambda-1e400")
    yield pytest.param(_RUN + ["--set", "theorem_lambda=1" + "0" * 400], _TINY_RUN,
                       id="set-theorem_lambda-int-above-float-range")
    yield pytest.param(_RUN + ["--set", "validate=1"], _TINY_RUN, id="set-validate")
    yield pytest.param(_RUN + ["--set", 'stability={"J":"x"}'], _TINY_RUN,
                       id="set-stability-J-string")
    yield pytest.param(_RUN + ["--set", "stability.iterations=-1"], _TINY_RUN,
                       id="set-stability.iterations-negative")
    yield pytest.param(_RUN + ["--set", "jobs=0"], _TINY_RUN, id="flag-jobs-0")
    yield pytest.param(_RUN + ["--set", "iterations=0"], _TINY_RUN, id="flag-iterations-0")
    # a J above an n of the grid, which the train split would inject whole
    yield pytest.param(["run", "--set", "task=quadratic", "--set", "n_grid=[4,30]",
                        "--set", "eta_grid=[0.1]", "--set", "seeds=[0,1]", "--set", "iterations=10",
                        "--set", "input_dim=2", "--set", "subsample=5",
                        "--set", 'stability={"J":10,"iterations":5,"converge_iterations":0}',
                        "--out", "{out}"], _TINY_RUN, id="set-stability-J-injects-every-sample")
    # a repeated stability seed would count its estimate twice
    yield pytest.param(_RUN + ["--set", "stability.seeds=[3,3]"], _TINY_RUN,
                       id="set-stability.seeds-repeated")
    stab = {"task": "quadratic", "n": 10, "seeds": [0], "iterations": 3}
    yield pytest.param(["stability", "--config", "{cfg}"], {**stab, "seeds": 3},
                       id="stability-config-seeds-int")
    yield pytest.param(["stability", "--config", "{cfg}"], {**stab, "seeds": [0, 0, 1]},
                       id="stability-config-seeds-repeated")
    yield pytest.param(["stability", "--config", "{cfg}"], {**stab, "iterations": "a"},
                       id="stability-config-iterations-string")
    for key, value in (("input_dim", 0), ("hidden", 0), ("J", -1), ("n", 1)):
        yield pytest.param(["stability", "--config", "{cfg}"], {**stab, key: value},
                           id=f"stability-config-{key}-{value}")


@pytest.mark.parametrize("argv, doc", _misuse_cases())
def test_config_misuse_exits_2_before_training(tmp_path, capsys, monkeypatch, argv, doc):
    """The config file, `run` flags, `--set` and `stability --config` share
    one typed check: a bad value exits 2 with one line before any SGD step."""
    def no_sgd(*args, **kwargs):
        raise AssertionError("SGD ran")

    monkeypatch.setattr(trainer, "_chunked_sgd", no_sgd)
    cfg, out = tmp_path / "cfg.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    assert main([a.replace("{cfg}", str(cfg)).replace("{out}", str(out)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (out / "cells").exists()


def test_decaying_steps_at_n_1_bound_without_the_closed_form(tmp_path):
    """The closed-form β of decaying steps needs n >= 2: at n = 1 the bound
    row has no analytic value, and the other sample size's row is the one
    a run of that size alone gives."""
    run = {"task": "quadratic", "n_grid": [1, 3], "eta_grid": [0.1], "seeds": [0, 1],
           "iterations": 10, "input_dim": 2, "subsample": 5, "step_rule": "decaying",
           "stability": {"eval_split": "validation", "iterations": 5, "seeds": [0, 1]}}
    rows = run_pipeline(config_from_dict(run), output_dir=tmp_path / "both").bound_rows
    alone = run_pipeline(config_from_dict({**run, "n_grid": [3]}), output_dir=tmp_path / "three")
    assert [row["n"] for row in rows] == [1, 3]
    assert rows[0]["analytic_beta"] is None
    assert not any(key.endswith("_analytic") for key in rows[0])
    assert rows[1] == alone.bound_rows[0] and rows[1]["analytic_beta"] is not None


_ZERO_ETA = {"task": "quadratic", "n_grid": [10], "eta_grid": [0.0], "seeds": [0],
             "iterations": 20, "input_dim": 2, "subsample": 10}
_ZERO_ETA_STABILITY = {"J": 2, "seeds": [0], "iterations": 20, "converge_iterations": 0}


@pytest.mark.parametrize("changes, bounded", [
    ({}, False),
    ({"lipschitz": 1.0, "loss_bound": 1.0}, False),
    ({"stability": _ZERO_ETA_STABILITY}, False),
    ({"step_rule": "decaying", "stability": {**_ZERO_ETA_STABILITY, "step": 0.05}}, True),
], ids=["no-stability", "lipschitz-set", "stability", "decaying-stability-step"])
def test_a_zero_learning_rate_runs_with_one_degenerate_l_warning(tmp_path, capsys, changes,
                                                                 bounded):
    """A window that never moves has no pair of iterates to take L from: its
    cell's L is the smallest positive double, with one warning, and the run
    exits 0. Its twin runs at step 0 never part, so only a stability section
    with a step of its own gives a bound row, without the closed-form β of
    decaying steps, which needs a first step in (0, 1/G)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_ZERO_ETA, **changes}))
    with pytest.warns(UserWarning) as caught:
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert len(caught) == 1 and "smallest positive double" in str(caught[0].message)
    cell = tmp_path / "out" / "cells" / "quadratic-n10-eta0p0-b1-s0"
    assert json.loads((cell / "record.json").read_text())["lipschitz"] == np.finfo(float).tiny
    rows = json.loads((tmp_path / "out" / "report" / "summary.json").read_text())["bounds"]
    assert len(rows) == bounded
    assert all(row["analytic_beta"] is None for row in rows)


def test_each_motionless_cell_gets_a_degenerate_l_warning_naming_it(tmp_path):
    """Four cells that never move print four warnings under Python's default
    warning filter, which shows a message once per code location, each
    naming its cell."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_ZERO_ETA, "n_grid": [10, 20], "seeds": [0, 1]}))
    src = Path(pipeline.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "trajtopo", "run", "--config", str(cfg), "--out",
         str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    warned = [line for line in proc.stderr.splitlines() if "UserWarning" in line]
    assert len(warned) == 4, proc.stderr
    cells = sorted(p.name for p in (tmp_path / "out" / "cells").iterdir())
    assert len(cells) == 4
    for cid, line in zip(cells, sorted(warned)):
        assert f"cell {cid}: " in line and "smallest positive double" in line


def test_bound_values_of_a_motionless_window_do_not_depend_on_l(tmp_path):
    """E^alpha = 0 and PMag = 1 for a window that never moves, so the terms
    that L scales vanish: the bound row at the smallest positive double as
    L holds the bound values of the row at a configured L = 1."""
    doc = {**_ZERO_ETA, "step_rule": "decaying",
           "stability": {**_ZERO_ETA_STABILITY, "step": 0.05}}
    with pytest.warns(UserWarning, match="smallest positive double"):
        (tiny,) = run_pipeline(config_from_dict(doc), tmp_path / "tiny").bound_rows
        (one,) = run_pipeline(config_from_dict({**doc, "lipschitz": 1.0}),
                              tmp_path / "one").bound_rows
    assert (tiny["L"], one["L"]) == (np.finfo(float).tiny, 1.0)
    assert tiny["theorem_scale"] < one["theorem_scale"]
    for key in ("beta_hat", "ealpha_bound", "pmag_bound"):
        assert tiny[key] == one[key]


def test_report_of_a_parallel_run_starts_no_worker_pool(tmp_path, capsys, monkeypatch):
    """`report` reads stored files only, so a `jobs = 2` run's report starts
    no process pool and equals the report of the same run at `jobs = 1`."""
    for jobs in (1, 2):
        run_pipeline(config_from_dict({**_TINY_RUN, "seeds": [0, 1], "jobs": jobs}),
                     output_dir=tmp_path / f"jobs{jobs}")

    def no_pool(jobs):
        raise AssertionError("worker pool started")

    monkeypatch.setattr(blas, "worker_pool", no_pool)
    for jobs in (1, 2):
        assert main(["report", str(tmp_path / f"jobs{jobs}"), "--out",
                     str(tmp_path / f"report{jobs}")]) == 0
    assert tree_digest(tmp_path, ("report1",)) == {
        path.replace("report2", "report1"): digest
        for path, digest in tree_digest(tmp_path, ("report2",)).items()}


def test_run_json_of_the_full_section_spelling_reuses_everything(tmp_path):
    """A `run.json` that spells all eight stability-section keys, with nulls
    for the unset `J`, `seeds` and `step`, as older versions wrote it,
    loads to the same stability configs: `report` hits every stored file
    and a re-run computes nothing."""
    out = tmp_path / "out"
    section = {"iterations": 20, "converge_iterations": 0}
    run_pipeline(config_from_dict({**_TINY_RUN, "stability": section}), output_dir=out)
    doc = json.loads((out / "run.json").read_text())
    doc["stability"] = {"J": None, "seeds": None, "init_mode": "random_init",
                        "eval_split": "train", "direction": "directed", "iterations": 20,
                        "converge_iterations": 0, "step": None}
    (out / "run.json").write_text(json.dumps(doc, indent=2) + "\n")
    kept = tree_digest(out, ("report",))
    assert main(["report", str(out)]) == 0
    assert tree_digest(out, ("report",)) == kept
    logged = len((out / "pipeline.log.jsonl").read_text().splitlines())
    result = run_pipeline(load_config(out / "run.json"), output_dir=out)
    log = [json.loads(line) for line in (out / "pipeline.log.jsonl").read_text().splitlines()]
    assert result.computed == 0
    assert [e["skipped"] for e in log[logged:] if e["event"] == "stability"] == [True]
    assert tree_digest(out, ("report",)) == kept


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


# Each config field that a cell's or a stability report's fingerprint covers,
# with a value other than `_TINY_RUN`'s, whether a re-run under it retrains
# the cell, and whether it redoes the stability experiment. The bounds-stage
# fields reach neither fingerprint but move the theorem scale.
_SHAPING_FIELDS = {
    "task": ("logistic_regression", True, True),
    "input_dim": (3, True, True),
    "iterations": (6, True, False),
    "warmup": (2, True, False),
    "subsample": (4, True, False),
    "radius": (5.0, True, True),
    "step_rule": ("decaying", True, True),
    "alpha": (0.5, True, False),
    "pmag_scales": ([10.0], True, False),
    "class_sep": (2.0, True, True),
    "noise": (0.5, True, True),
    "hidden": (4, True, True),
}
_SECTION_FIELDS = {
    "J": (1, False, True),
    "seeds": ([0, 1], False, True),
    "init_mode": ("locally_converged", False, True),
    "eval_split": ("validation", False, True),
    "direction": ("symmetrized", False, True),
    "iterations": (6, False, True),
    "converge_iterations": (3, False, True),
    "step": (0.2, False, True),
}
_BOUND_FIELDS = {
    "theorem_lambda": (2.0, False, False),
    "lipschitz": (2.0, False, False),
    "loss_bound": (3.0, False, False),
}
# The default value of a float field, spelled as an integer: the same value,
# so a re-run under it retrains and restabilizes nothing.
_RESPELLED = {
    "pmag_scales": ([100], False, False),
    "radius": (10, False, False),
}


def test_fingerprints_cover_every_config_field(tmp_path, monkeypatch):
    """Each run-config field is fingerprinted with its cells or named in
    `pipeline.UNFINGERPRINTED`, each `StabilityConfig` field is fingerprinted
    with its report and is n, taken from the grid or a stability-section
    key (only `seeds` and `step` are both), and every fingerprinted field
    has a flip case below; a field added later fails here until it is
    classified."""
    docs = []
    real = pipeline._fingerprint
    monkeypatch.setattr(pipeline, "_fingerprint", lambda doc: docs.append(doc) or real(doc))
    run_pipeline(config_from_dict(_TINY_RUN), output_dir=tmp_path / "out")
    cell_doc, stability_doc = docs
    config_fields = {f.name for f in fields(ExperimentConfig)}
    assert set(cell_doc) == set(_SHAPING_FIELDS) | {"n", "eta", "batch", "seed", "layout"}
    assert set(_SHAPING_FIELDS) | set(pipeline.UNFINGERPRINTED) == config_fields
    assert set(_SHAPING_FIELDS).isdisjoint(pipeline.UNFINGERPRINTED)
    assert set(_BOUND_FIELDS) <= set(pipeline.UNFINGERPRINTED)
    stability_fields = {f.name for f in fields(stability.StabilityConfig)}
    assert set(stability_doc) == stability_fields
    from_grid, section = set(pipeline.STABILITY_GRID_KEYS) | {"step"}, set(_SECTION_FIELDS)
    assert section == set(pipeline.STABILITY_SECTION_KEYS)
    assert stability_fields == {"n"} | from_grid | section
    assert from_grid & section == {"seeds", "step"}


@pytest.mark.parametrize(
    "key, value, retrains, restabilizes",
    [(k, *v) for k, v in (_SHAPING_FIELDS | _BOUND_FIELDS).items()]
    + [(f"stability.{k}", *v) for k, v in _SECTION_FIELDS.items()]
    + [(k, *v) for k, v in _RESPELLED.items()],
    ids=list(_SHAPING_FIELDS | _BOUND_FIELDS) + [f"stability.{k}" for k in _SECTION_FIELDS]
    + [f"{k}-as-int" for k in _RESPELLED],
)
def test_rerun_after_one_field_changes_matches_fresh_run(tmp_path, key, value, retrains,
                                                         restabilizes):
    """A re-run that changes one field retrains the cell or redoes the
    stability experiment exactly when that field shapes it, and its
    `report/` then equals a fresh run's. A re-run that only spells a float
    as an integer changes no value, so it redoes nothing."""
    changed = json.loads(json.dumps(_TINY_RUN))
    section, _, name = key.rpartition(".")
    (changed[section] if section else changed)[name] = value
    out = tmp_path / "rerun"
    run_pipeline(config_from_dict(_TINY_RUN), output_dir=out)
    logged = len((out / "pipeline.log.jsonl").read_text().splitlines())
    result = run_pipeline(config_from_dict(changed), output_dir=out)
    run_pipeline(config_from_dict(changed), output_dir=tmp_path / "fresh")
    log = (out / "pipeline.log.jsonl").read_text().splitlines()[logged:]
    assert result.computed == int(retrains)
    assert [e["skipped"] for e in map(json.loads, log) if e["event"] == "stability"] == [
        not restabilizes
    ]
    assert tree_digest(out, ("report",)) == tree_digest(tmp_path / "fresh", ("report",))


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
    """Every record, theorem-scale PMag and summary stability entry that a
    run with stability writes reads back through its typed reader and
    writes the same bytes again. The theorem-scale value lives in its own
    file, not in the record."""
    out = tmp_path / "out"
    run_pipeline(small_config(), output_dir=out)
    records = sorted(out.glob("cells/*/record.json"))
    assert len(records) == 4
    for path in records:
        text = path.read_text()
        record = from_json_object(RunRecord, json.loads(text), "run record")
        assert THEOREM_KEY not in record.pmag
        assert record_json(record) == text
        theorem_path = path.parent / pipeline.THEOREM_PMAG
        theorem = from_json_object(pipeline.TheoremPMag, json.loads(theorem_path.read_text()),
                                   "theorem PMag")
        assert json.dumps(asdict(theorem), indent=2) + "\n" == theorem_path.read_text()
    summary = json.loads((out / "report" / "summary.json").read_text())
    assert summary["stability"]
    for doc in summary["stability"]:
        report = from_json_object(StabilityReport, doc, "stability report")
        assert json.loads(record_json(report)) == doc


def test_run_json_loads_back_to_the_same_config(tmp_path):
    """The `run.json` that a run writes, which `report` runs from, loads back
    through `config_from_dict` to an equal config that dumps to the same
    bytes; an integer in a float field loads as that float."""
    sample = load_config(Path(__file__).resolve().parents[1] / "sample_config.json")
    tiny = config_from_dict(_TINY_RUN)
    run_pipeline(tiny, output_dir=tmp_path)
    assert (tmp_path / "run.json").read_text() == record_json(tiny)
    for cfg in (sample, tiny):
        text = record_json(cfg)
        again = config_from_dict(json.loads(text))
        assert again == cfg and record_json(again) == text
    as_ints = config_from_dict({**_TINY_RUN, "radius": 10, "pmag_scales": [100], "lipschitz": 2})
    assert record_json(as_ints) == record_json(config_from_dict(
        {**_TINY_RUN, "radius": 10.0, "pmag_scales": [100.0], "lipschitz": 2.0}))


def test_readme_config_table_matches_dataclasses():
    """The README config table names exactly the config fields, and its
    `stability` row exactly the stability-section keys."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config schema", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| `")]
    keys = {k for key_cell, _ in rows for k in re.findall(r"`(\w+)`", key_cell)}
    assert keys == {f.name for f in fields(ExperimentConfig)}
    (stability_row,) = [meaning for key_cell, meaning in rows if key_cell.strip() == "`stability`"]
    assert set(re.findall(r"`(\w+)`", stability_row)) == set(pipeline.STABILITY_SECTION_KEYS)


def test_readme_library_example_runs():
    """The README's `## Library` code block runs as written, so a documented
    call that no longer exists fails here."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md#Library", "exec"), namespace)
    assert namespace["e1"] > 0 and namespace["pm"] > 0
    assert len(namespace["edges"]) == len(namespace["dist"]) - 1
    assert namespace["own"].n == 3


def _readme_cli_commands() -> list[list[str]]:
    """The commands of the README's `## CLI` code block, each as argv after
    `trajtopo`, with `\\` continuations joined and `#` comments cut."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [words[1:] for words in lines if words]


def test_readme_cli_commands_parse():
    """Every command that the README's `## CLI` block shows parses, so a
    flag that is gone from the CLI cannot stay in the README; the block
    shows each subcommand."""
    commands = _readme_cli_commands()
    assert {argv[0] for argv in commands} == {"run", "traj-gen", "distmat", "lifetime-sum", "pmag",
                                              "stability", "bound", "report"}
    for argv in commands:
        build_parser().parse_args(argv)


def test_python_m_trajtopo_help_exits_0():
    src = Path(pipeline.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-m", "trajtopo", "--help"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: trajtopo")


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
    """With decaying steps the bounds stage adds closed-form rows when the
    task has a smoothness G and the first step is below 1/G: the quadratic
    task's G = 1 at eta 0.05 qualifies, at eta 1.5 not, and the logistic
    task, whose G is not known, never does."""
    def bound_rows(**changes):
        out = tmp_path / ("-".join(map(str, changes.values())) or "default")
        run_pipeline(small_config(step_rule="decaying", **changes), output_dir=out)
        rows = json.loads((out / "report" / "summary.json").read_text())["bounds"]
        assert len(rows) == 2
        return rows

    assert all(r["analytic_beta"] > 0 and "pmag_bound_analytic" in r for r in bound_rows())
    for changes in ({"eta_grid": [1.5]}, {"task": "logistic_regression"}):
        assert all(r["analytic_beta"] is None and "pmag_bound_analytic" not in r
                   for r in bound_rows(**changes))


def test_bound_rows_take_l_and_b_from_the_records_of_their_n(tmp_path):
    """A row's L and B are the largest of its sample size's records, unless
    the config sets them; either configured constant wins on its own."""
    result = run_pipeline(small_config(), output_dir=tmp_path / "out")
    assert len(result.bound_rows) == 2
    for row in result.bound_rows:
        group = [r for r in result.records if r.n == row["n"]]
        assert len(group) == 2
        assert row["L"] == max(r.lipschitz for r in group)
        assert row["B"] == max(r.loss_bound for r in group)
    for key, name in (("lipschitz", "L"), ("loss_bound", "B")):
        rows = run_pipeline(small_config(**{key: 7.5}), output_dir=tmp_path / key).bound_rows
        assert [row[name] for row in rows] == [7.5, 7.5]
        other = "B" if name == "L" else "L"
        assert [row[other] for row in rows] == [row[other] for row in result.bound_rows]


def test_bounds_stage_opens_no_cell_file_but_theorem_pmag(tmp_path, monkeypatch):
    """The bounds stage takes L, B and the complexity values from the
    records and G from the task, and opens no file. The theorem-scale PMag
    of a stored cell comes from phase B, which of the cell's files opens
    only `theorem_pmag.json`, and the trajectory when that misses."""
    out, opened = tmp_path / "out", {"_bounds_stage": [], "compute_cell": []}
    real_open = io.open

    def recorded(name):
        real = getattr(pipeline, name)

        def recording_open(file, *args, **kwargs):
            opened[name].append(Path(os.fsdecode(file)))
            return real_open(file, *args, **kwargs)

        def stage(*args, **kwargs):
            with monkeypatch.context() as patched:
                patched.setattr(io, "open", recording_open)
                patched.setattr(builtins, "open", recording_open)
                return real(*args, **kwargs)

        return stage

    run_pipeline(small_config(), output_dir=out)
    cells = sorted(p.parent for p in out.glob("cells/*/record.json"))
    for name in opened:
        monkeypatch.setattr(pipeline, name, recorded(name))
    run_pipeline(small_config(), output_dir=out)
    assert opened["_bounds_stage"] == []
    assert sorted(opened["compute_cell"]) == [cell / pipeline.THEOREM_PMAG for cell in cells]
    opened["compute_cell"].clear()
    run_pipeline(small_config(theorem_lambda=2.0), output_dir=out)
    assert opened["_bounds_stage"] == []
    assert {p.parent for p in opened["compute_cell"]} == set(cells)
    assert {p.name for p in opened["compute_cell"]} == {
        pipeline.THEOREM_PMAG, "trajectory.json", "trajectory.bin",
        f"{pipeline.THEOREM_PMAG}.partial"}


def test_a_run_builds_each_cells_distances_once(tmp_path, monkeypatch):
    """A fresh run builds each cell's distance matrix once, for its
    complexity values and its theorem-scale PMag together; a re-run under
    another `theorem_lambda` once per bounded cell; a finished re-run, a
    re-run without bound rows, and `report`, never."""
    built = []
    real = geometry.pairwise_distances
    monkeypatch.setattr(geometry, "pairwise_distances",
                        lambda traj: built.append(len(traj)) or real(traj))
    out = tmp_path / "out"
    cfg = small_config(eta_grid=[0.05, 0.1])
    fresh = run_pipeline(cfg, output_dir=out)
    assert (fresh.computed, len(built)) == (8, 8)
    assert {row["n"] for row in fresh.bound_rows} == {20, 40}
    built.clear()
    rerun = run_pipeline(small_config(eta_grid=[0.05, 0.1], theorem_lambda=2.0), output_dir=out)
    assert (rerun.computed, len(built)) == (0, 8)
    built.clear()
    run_pipeline(small_config(eta_grid=[0.05, 0.1], theorem_lambda=2.0), output_dir=out)
    assert main(["report", str(out)]) == 0
    assert built == []
    assert run_pipeline(small_config(eta_grid=[0.05, 0.1], stability=None),
                        output_dir=out).bound_rows == []
    assert built == []


def test_alpha_outside_unit_interval_without_stability_section():
    """Only the bounds stage needs alpha in (0, 1]; without a stability
    section any nonnegative alpha is a valid lifetime-sum exponent."""
    for alpha in (0, 2.5):
        assert config_from_dict({"alpha": alpha}).alpha == alpha


# Runs CLI commands in one fresh interpreter after importing the CLI and
# loading the config, then prints the loaded modules that cost start-up:
# scipy's and the process pool's.
_LOADED_AFTER = """
import json, sys
from trajtopo import cli, pipeline
pipeline.load_config(sys.argv[1])
for argv in json.loads(sys.argv[2]):
    assert cli.main(argv) == 0, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] == "scipy" or m == "concurrent.futures.process")))
"""


def _modules_loaded_by(config: Path, argvs: list[list[str]]) -> list[str]:
    src = Path(pipeline.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER, str(config), json.dumps(argvs)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_that_need_no_scipy_never_load_it(tmp_path):
    """Importing the CLI, loading a config, a re-run whose caches all hit,
    `report`, `lifetime-sum`, `bound` and a logistic `traj-gen` of batch 1
    load no scipy module and no process pool; a fresh run of the same
    config does load scipy."""
    # the logistic task, whose gradient needs scipy, checks that building
    # a task for the config check does not load it
    doc = {**_TINY_RUN, "task": "logistic_regression"}
    out, cfg = tmp_path / "out", tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    run_pipeline(config_from_dict(doc), output_dir=out)
    dist = DistanceMatrix([[0.0, 5.0, 10.0], [5.0, 0.0, 5.0], [10.0, 5.0, 0.0]], [0, 1, 2])
    save_distance_matrix(dist, tmp_path / "d")
    [stab_report] = map(str, out.glob("stability/*.json"))
    needs_no_scipy = [
        ["run", "--config", str(cfg), "--out", str(out)],
        ["report", str(out), "--out", str(tmp_path / "rep")],
        ["lifetime-sum", str(tmp_path / "d")],
        ["bound", "--theorem", "pmag", "--stability-report", stab_report, "--loss-bound", "1",
         "--samples", "1.0"],
        # a lone run's one-sample logistic gradient takes its sigmoid in Python floats
        ["traj-gen", "--task", "logistic_regression", "--n", "8", "--eta", "0.1",
         "--iterations", "5", "--input-dim", "2", "--out", str(tmp_path / "tg")],
    ]
    assert _modules_loaded_by(cfg, needs_no_scipy) == []
    fresh = [["run", "--config", str(cfg), "--out", str(tmp_path / "fresh")]]
    assert any(m.startswith("scipy") for m in _modules_loaded_by(cfg, fresh))


def test_rerun_that_retrains_one_seed_of_a_group_matches_fresh_run(tmp_path):
    """A re-run whose group (eta, batch) misses one cell trains that cell
    alone, and every file it writes equals a fresh run's, also with the
    group split into stacks by `jobs`."""
    cfg = small_config(seeds=[0, 1, 2], batch_grid=[1, 3])
    run_pipeline(cfg, output_dir=tmp_path / "fresh")
    for jobs in (1, 2):
        out = tmp_path / f"rerun-{jobs}"
        run_pipeline(cfg, output_dir=out)
        (out / "cells" / cell_id("quadratic", 40, 0.05, 3, 1) / "fingerprint").unlink()
        result = run_pipeline(small_config(seeds=[0, 1, 2], batch_grid=[1, 3], jobs=jobs),
                              output_dir=out)
        assert (result.computed, result.skipped) == (1, 11)
        assert tree_digest(out) == tree_digest(tmp_path / "fresh")


@pytest.mark.parametrize("task, extra", [("small_mlp", {"hidden": 3, "batch_grid": [1, 2]}),
                                         ("logistic_regression", {"step_rule": "decaying"})])
def test_stacks_split_by_jobs_write_the_same_bytes(tmp_path, task, extra):
    """jobs=1 trains each group's (n, seed) cells, three seeds per n, as one
    stack, jobs=2 as two stacks and jobs=3 as three; every cell and report
    byte agrees."""
    for jobs in (1, 2, 3):
        run_pipeline(small_config(task=task, seeds=[0, 1, 2], jobs=jobs, **extra),
                     output_dir=tmp_path / str(jobs))
    assert tree_digest(tmp_path / "1") == tree_digest(tmp_path / "2") == tree_digest(tmp_path / "3")


def _seed_marked_failures(monkeypatch, fail_at):
    """Make the quadratic gradient of cell (n, seed) turn NaN from step
    fail_at[n, seed] on; each cell's data carries 1000 n + seed in the
    label column, which the quadratic loss ignores."""
    real_data = trainer.make_task_and_data
    calls = []

    def marked_data(kind, n, input_dim, seed, **kwargs):
        task, data, pool = real_data(kind, n, input_dim, seed, **kwargs)
        data.samples[:, input_dim] = 1000 * n + seed
        return task, data, pool

    def gradient(self, w, batches):
        calls.append(None)
        grad = w - batches[:, :, : self.input_dim].mean(axis=1)
        for row, mark in enumerate(batches[:, 0, self.input_dim]):
            if len(calls) >= fail_at.get(divmod(int(mark), 1000), np.inf):
                grad[row] = np.nan
        return grad

    monkeypatch.setattr(trainer, "make_task_and_data", marked_data)
    monkeypatch.setattr(trainer.QuadraticTask, "stack_gradient", gradient)


def test_stacked_failure_names_the_first_failing_cell(tmp_path, monkeypatch):
    """Seeds 1 and 2 of one stack turn non-finite at steps 5 and 3. The run
    fails for seed 1 at its own iteration, the first failing cell in grid
    order, after writing seed 0 and not seed 2, as one cell at a time
    would; seed 2 alone fails at iteration 3."""
    from trajtopo.errors import NumericalFailureError

    cfg = small_config(n_grid=[10], seeds=[0, 1, 2], stability=None)
    _seed_marked_failures(monkeypatch, {(10, 1): 5, (10, 2): 3})
    with pytest.raises(NumericalFailureError,
                       match=r"^cell quadratic-n10-eta0p05-b1-s1: non-finite gradient at "
                             r"iteration 5$"):
        run_pipeline(cfg, output_dir=tmp_path / "out")
    written = sorted(p.parent.name for p in (tmp_path / "out" / "cells").glob("*/fingerprint"))
    assert written == ["quadratic-n10-eta0p05-b1-s0"]

    _seed_marked_failures(monkeypatch, {(10, 1): 5, (10, 2): 3})
    with pytest.raises(NumericalFailureError, match="b1-s2: non-finite gradient at iteration 3$"):
        run_pipeline(small_config(n_grid=[10], seeds=[2], stability=None),
                     output_dir=tmp_path / "alone")


def test_failure_in_a_stack_across_n_names_the_first_cell_by_n_then_seed(tmp_path, monkeypatch):
    """One stack holds every (n, seed) of the group, ordered by n, then by
    seed. Cell (10, 1) turns non-finite at step 5 and cell (40, 0) at step
    3: the run names (10, 1), the first in that order, and writes only the
    cell before it, (10, 0)."""
    from trajtopo.errors import NumericalFailureError

    cfg = small_config(n_grid=[10, 20, 40], seeds=[0, 1], stability=None)
    _seed_marked_failures(monkeypatch, {(10, 1): 5, (40, 0): 3})
    with pytest.raises(NumericalFailureError,
                       match=r"^cell quadratic-n10-eta0p05-b1-s1: non-finite gradient at "
                             r"iteration 5$"):
        run_pipeline(cfg, output_dir=tmp_path / "out")
    cells = tmp_path / "out" / "cells"
    assert sorted(p.name for p in cells.iterdir()) == ["quadratic-n10-eta0p05-b1-s0"]
    assert (cells / "quadratic-n10-eta0p05-b1-s0" / "fingerprint").exists()


@pytest.mark.parametrize("task", ["quadratic", "logistic_regression", "small_mlp"])
def test_one_stack_per_group_spans_every_n_bit_for_bit(tmp_path, monkeypatch, task):
    """A grid of three sample sizes and two learning rates trains two
    stacks, one per eta, each of every (n, seed) ordered by n, then by
    seed; each cell's window equals the cell trained alone, bit for bit."""
    cfg = small_config(task=task, hidden=3, n_grid=[10, 20, 40], eta_grid=[0.05, 0.1],
                       seeds=[0, 1], stability=None)
    real_train = pipeline.train_cells
    stacks = []

    def recording_train(cfg, eta, batch, cells):
        trained = real_train(cfg, eta, batch, cells)
        stacks.append((eta, batch, list(cells), trained))
        return trained

    monkeypatch.setattr(pipeline, "train_cells", recording_train)
    run_pipeline(cfg, output_dir=tmp_path / "out")
    cells = [(n, seed) for n in (10, 20, 40) for seed in (0, 1)]
    assert [(eta, batch, c) for eta, batch, c, _ in stacks] == [(0.05, 1, cells), (0.1, 1, cells)]
    for eta, batch, stacked_cells, trained in stacks:
        for (n, seed), cell in zip(stacked_cells, trained):
            (alone,) = real_train(cfg, eta, batch, [(n, seed)])
            assert (cell.seed, cell.data.n) == (seed, n)
            assert cell.window.points.tobytes() == alone.window.points.tobytes()
            assert cell.window.iteration_ids.tobytes() == alone.window.iteration_ids.tobytes()
            assert cell.window.meta == alone.window.meta


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_removes_partial_files_an_interrupted_run_left(tmp_path, jobs):
    """The `.partial` files of an interrupted write, planted in an empty
    output directory and in a finished one, are gone after a run, and every
    other byte equals a fresh run's; a `.partial` file or directory no run
    writes stays, and `report` leaves its run's directory alone."""
    cfg = small_config(jobs=jobs)
    run_pipeline(cfg, output_dir=tmp_path / "fresh")
    subdirs = ("cells", "stability", "report", pipeline.RUN_MANIFEST)
    planted = [Path("cells") / cell_id("quadratic", 20, 0.05, 1, 1) / "record.json.partial",
               Path("report") / "summary.json.partial"]
    unrelated = [Path("notes.partial"), Path("report") / "drafts.partial"]

    def plant(root):
        for rel in planted:
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text("{\"cut")

    for out in (tmp_path / "empty", tmp_path / "finished"):
        if out.name == "finished":
            shutil.copytree(tmp_path / "fresh", out)
        plant(out)
        (out / "notes.partial").write_text("mine")
        (out / "report" / "drafts.partial").mkdir()
        run_pipeline(cfg, output_dir=out)
        assert sorted(p.relative_to(out) for p in out.rglob("*.partial")) == unrelated
        assert (out / "notes.partial").read_text() == "mine"
        assert (out / "report" / "drafts.partial").is_dir()
        assert tree_digest(out, subdirs) == tree_digest(tmp_path / "fresh", subdirs)
        (out / "notes.partial").unlink()
        (out / "report" / "drafts.partial").rmdir()

    plant(tmp_path / "finished")
    assert main(["report", str(tmp_path / "finished"), "--out", str(tmp_path / "rep")]) == 0
    assert sorted(p.relative_to(tmp_path / "finished") for p in
                  (tmp_path / "finished").rglob("*.partial")) == sorted(planted)


def _file_states(root: Path) -> dict[str, tuple[bytes, int, int]]:
    """Bytes, inode and mtime of every file under `root`, by relative path."""
    return {str(p.relative_to(root)): (p.read_bytes(), p.stat().st_ino, p.stat().st_mtime_ns)
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_rerun_and_report_of_a_finished_directory_write_only_log_lines(tmp_path, capsys):
    """A `run` into a finished directory leaves every file but
    `pipeline.log.jsonl`, which it appends to, as it was: same bytes, inode
    and mtime. `report` leaves the report directory so too, and every other
    file."""
    out = tmp_path / "out"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(SMALL))
    argv = ["run", "--config", str(cfg_path), "--out", str(out)]
    assert main(argv) == 0
    before = _file_states(out)
    log = before.pop("pipeline.log.jsonl")[0]
    assert "report/grid_pmag_theorem_scale.csv" in before
    assert any(name.endswith(pipeline.THEOREM_PMAG) for name in before)
    assert main(argv) == 0
    after = _file_states(out)
    assert after.pop("pipeline.log.jsonl")[0].startswith(log)
    assert after == before
    assert main(["report", str(out)]) == 0
    after = _file_states(out)
    after.pop("pipeline.log.jsonl")
    assert after == before


def _worker_blas_threads() -> dict[str, int]:
    import scipy.linalg  # noqa: F401  (a worker's first solve loads scipy's OpenBLAS)

    from trajtopo import blas

    return blas.thread_counts()


def test_pool_workers_run_one_blas_thread():
    """Each worker of a `jobs > 1` run sees one thread in every OpenBLAS,
    the ones loaded before the pool started and scipy's loaded after."""
    with blas.worker_pool(2) as pool:
        counts = pool.submit(_worker_blas_threads).result()
    if not counts:
        pytest.skip("no OpenBLAS is loaded")
    assert set(counts.values()) == {1}, counts


def test_jobs_split_each_group_into_at_most_jobs_stacks():
    cells = [(10, 4), (10, 0), (20, 9), (20, 2), (40, 7)]
    assert pipeline._split_stacks(cells, 1) == [cells]
    assert pipeline._split_stacks(cells, 2) == [cells[:2], cells[2:]]
    assert pipeline._split_stacks(cells, 3) == [cells[:1], cells[1:3], cells[3:]]
    assert pipeline._split_stacks(cells, 8) == [[c] for c in cells]


def test_jobs_run_as_many_stacks_as_a_stack_per_n_would(tmp_path, monkeypatch):
    """With fewer seeds than `jobs`, the sample sizes of a group still split
    among the workers: seeds [0], n_grid [20, 40] and jobs 2 make two
    stacks, as one stack per n would."""
    stacks = []
    real_train = pipeline.train_cells
    monkeypatch.setattr(blas, "worker_pool", lambda jobs: nullcontext())
    monkeypatch.setattr(pipeline, "train_cells",
                        lambda cfg, eta, batch, cells: stacks.append(cells)
                        or real_train(cfg, eta, batch, cells))
    run_pipeline(small_config(n_grid=[20, 40], seeds=[0], jobs=2, stability=None),
                 output_dir=tmp_path / "out")
    assert stacks == [[(20, 0)], [(40, 0)]]


def _worker_holds_the_solve_lock() -> bool | None:
    from trajtopo import blas

    if not blas.thread_counts():
        return None  # no OpenBLAS is loaded
    with blas.full_threads():
        lock = blas._rule.turn
        if lock.acquire(block=False):
            lock.release()
            return False
        return True


def _worker_weighting(points) -> bytes:
    from conftest import distances_of

    return magnitude.weighting(distances_of(points), 1.0).gamma.tobytes()


def test_pool_workers_factor_at_the_main_process_thread_count():
    """OpenBLAS splits a Cholesky factorization among its threads in a way
    that changes the factor's last bits, here at m = 600; a worker at one
    BLAS thread factors at the main process's count, so a cell's bytes
    do not depend on `jobs`."""
    walk = np.cumsum(np.random.default_rng(5).standard_normal((600, 8)), axis=0)
    with blas.worker_pool(2) as pool:
        in_worker = pool.submit(_worker_weighting, walk).result()
        # the workers take turns, so that factorizations do not share the cores
        holds_lock = pool.submit(_worker_holds_the_solve_lock).result()
    assert in_worker == _worker_weighting(walk)
    if holds_lock is None:
        pytest.skip("no OpenBLAS is loaded")
    assert holds_lock


# at m = 200 the factor's last bits differ between one thread and two
_THREAD_SENSITIVE_RUN = {
    "task": "logistic_regression", "input_dim": 8, "n_grid": [40], "eta_grid": [0.05],
    "seeds": [0, 1, 2], "iterations": 200, "warmup": 50, "subsample": 200,
    "pmag_scales": [100],
    "stability": {"J": 2, "seeds": [0], "iterations": 20, "converge_iterations": 0},
}


def test_cli_runs_write_the_same_bytes_for_any_jobs(tmp_path, capsys):
    """`trajtopo run --set jobs=1, 2, 3` write the same cells, stability reports
    and reports; only `jobs` in run.json, and the log, differ. Workers
    forked while the CLI's process runs at one BLAS thread still factor at
    the thread count the command started with."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_THREAD_SENSITIVE_RUN))
    for jobs in (1, 2, 3):
        argv = ["run", "--config", str(cfg), "--out", str(tmp_path / str(jobs)),
                "--set", f"jobs={jobs}"]
        assert main(argv) == 0
    digests = [tree_digest(tmp_path / str(jobs), ("cells", "stability", "report"))
               for jobs in (1, 2, 3)]
    assert digests[0] == digests[1] == digests[2]
    manifests = [json.loads((tmp_path / str(jobs) / "run.json").read_text()) for jobs in (1, 2, 3)]
    assert [m.pop("jobs") for m in manifests] == [1, 2, 3]
    assert manifests[0] == manifests[1] == manifests[2]


@pytest.fixture
def blas_at_three_threads():
    """Every OpenBLAS, scipy's included, at 3 threads, a count that is
    neither one nor a default; the counts it found come back afterwards."""
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    from trajtopo import blas

    found = blas.thread_counts()
    if not found:
        pytest.skip("no OpenBLAS is loaded")
    for path in found:
        blas._controls(path)[1](3)
    yield dict.fromkeys(found, 3)
    for path, count in found.items():
        blas._controls(path)[1](count)


def _coincident_points(stem: Path) -> list[str]:
    save_distance_matrix(DistanceMatrix([[0.0, 0.0], [0.0, 0.0]], [0, 1]), stem)
    return ["pmag", str(stem), "--scales", "1"]


def _near_duplicate_points(stem: Path) -> list[str]:
    """Two points whose similarity matrix is singular at double precision."""
    save_distance_matrix(DistanceMatrix([[0.0, 1e-18], [1e-18, 0.0]], [0, 1]), stem)
    return ["pmag", str(stem), "--scales", "1"]


def _logistic_run(stem: Path) -> list[str]:
    doc = {**_TINY_RUN, "task": "logistic_regression", "iterations": 40, "subsample": 30}
    stem.with_suffix(".json").write_text(json.dumps(doc))
    return ["run", "--config", str(stem.with_suffix(".json")), "--out", str(stem)]


@pytest.mark.parametrize("command, code", [(_logistic_run, 0), (_coincident_points, 2),
                                           (_near_duplicate_points, 3)])
def test_cli_runs_blas_at_one_thread_but_for_the_solves(tmp_path, monkeypatch, capsys,
                                                         blas_at_three_threads, command, code):
    """During a CLI command a matrix product sees one thread in every
    OpenBLAS and a factorization the counts the command started with;
    when `main` returns, on success or on an exit of 2 or 3, the counts are
    back and the environment has gained no OPENBLAS_NUM_THREADS."""
    import scipy.linalg.lapack

    from trajtopo import blas

    seen = {"product": [], "factor": []}
    loss_table, dpotrf = trainer.LogisticTask.loss_table, scipy.linalg.lapack.dpotrf

    def probed_table(self, iterates, samples):
        seen["product"].append(blas.thread_counts())
        return loss_table(self, iterates, samples)

    def probed_factor(z, **options):
        seen["factor"].append(blas.thread_counts())
        return dpotrf(z, **options)

    monkeypatch.setattr(trainer.LogisticTask, "loss_table", probed_table)
    monkeypatch.setattr(scipy.linalg.lapack, "dpotrf", probed_factor)
    environ = dict(os.environ)
    assert main(command(tmp_path / "in")) == code
    assert blas.thread_counts() == blas_at_three_threads
    assert dict(os.environ) == environ
    one_thread = dict.fromkeys(blas_at_three_threads, 1)
    assert seen["product"] == [one_thread] * len(seen["product"])
    assert seen["factor"] == [blas_at_three_threads] * len(seen["factor"])
    assert bool(seen["factor"]) == (code != 2)
    assert bool(seen["product"]) == (code == 0)


_LOADED_DURING_A_COMMAND = """
import json
from trajtopo import blas
start = blas.thread_counts()
with blas.command_threads():
    import scipy.linalg
    during = blas.thread_counts()
    with blas.full_threads():
        solving = blas.thread_counts()
mapped = [path for path in blas._loaded_paths() if blas._controls(path)]
print(json.dumps([start, during, solving, blas.thread_counts(), mapped]))
"""


def test_an_openblas_loaded_during_a_command_comes_under_its_rule():
    """In a fresh process, scipy's OpenBLAS loads at the first scipy import,
    inside the command: it runs at one thread, and at the start count in a
    solve; the libraries loaded at the start get their counts back."""
    src = Path(pipeline.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", _LOADED_DURING_A_COMMAND], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    start, during, solving, after, mapped = json.loads(proc.stdout)
    if not mapped:
        pytest.skip("no OpenBLAS is loaded")
    assert sorted(during) == mapped
    assert during == dict.fromkeys(during, 1)
    assert solving == dict.fromkeys(during, max(start.values(), default=1))
    assert {path: after[path] for path in start} == start
