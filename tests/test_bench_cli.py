"""Bench harness, SVG plots, and the command-line interface."""

from __future__ import annotations

import fcntl
import inspect
import json
import os
import pickle
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

import wfdbgen
from test_bad_input import FLAG_ROWS, INPUT_ROWS, run_in_process
from ecgdenoise import baselines, bench, cli, enkf, metrics, wfdbio
from ecgdenoise.core import InputError, SettingError, Signal
from ecgdenoise.model import default_morphology, mean_beat, synthesize
from ecgdenoise.svgplot import PlotError, Series, render_line_chart


class TestPlanAndSeeds:
    def test_plan_validation(self):
        with pytest.raises(SettingError, match=r"^records must be non-empty, got \(\)$"):
            bench.BenchPlan(records=())
        methods = "enkf, ekf, sg, wavelet, nlms, rls, tvd"
        with pytest.raises(SettingError, match=f"^methods must be one of {methods}, got 'magic'$"):
            bench.BenchPlan(records=("118",), methods=("magic",))

    def test_cell_count_full_protocol(self):
        plan = bench.BenchPlan(
            records=("102", "108", "121", "122", "215", "220", "232", "118", "119"),
        )
        assert len(bench.plan_cells(plan)) == 9 * 7 * 6 == 378

    def test_plan_units_cover_each_cell_once(self, monkeypatch):
        plan = bench.BenchPlan(records=("118", "119", "122"), snr_levels=(-6.0, 0.0, 6.0, 12.0, 18.0))
        lengths = {"118": 7200, "119": 7200, "122": 3600}
        coords = bench.plan_cells(plan)

        def lockstep_sizes():
            units = bench.plan_units(plan, lengths)
            assert sorted(i for unit in units for i in unit) == list(range(len(coords)))
            lockstep = [bench.METHODS[coords[unit[0]][1]].batch is not None for unit in units]
            assert lockstep == sorted(lockstep, reverse=True)  # lockstep units first
            for unit, batched in zip(units, lockstep):
                assert len({coords[i][1] for i in unit}) == 1
                assert len({lengths[coords[i][0]] for i in unit}) == 1
                assert unit == sorted(unit)  # plan order
                assert len(unit) <= bench.BATCH_ROWS if batched else len(unit) == 1
            return sorted(len(unit) for unit, batched in zip(units, lockstep) if batched)

        # enkf, nlms and rls: 10 cells of 7200 samples form one unit, 5 of 3600 another.
        assert lockstep_sizes() == [5, 5, 5, 10, 10, 10]
        # With 8-row units the 10 cells split 8 + 2.
        monkeypatch.setattr(bench, "BATCH_ROWS", 8)
        assert lockstep_sizes() == [2, 2, 2, 5, 5, 5, 8, 8, 8]

    def test_cell_seed_is_coordinate_local(self):
        a = bench.cell_seed(0, "118", "enkf", 12.0)
        assert a == bench.cell_seed(0, "118", "enkf", 12.0)
        assert a != bench.cell_seed(0, "119", "enkf", 12.0)
        assert a != bench.cell_seed(0, "118", "ekf", 12.0)
        assert a != bench.cell_seed(0, "118", "enkf", 18.0)
        assert a != bench.cell_seed(1, "118", "enkf", 12.0)


@pytest.fixture(scope="module")
def small_result(data_root):
    plan = bench.BenchPlan(
        records=("121",),
        methods=("sg", "tvd"),
        snr_levels=(6.0,),
        noise="em",
        seed=3,
        duration_s=12.0,
    )
    return plan, bench.run_bench(plan, data_root)


@pytest.fixture(scope="module")
def sparse_root(data_root, tmp_path_factory):
    """The dataset with record 121 unannotated, plus "one_beat": 121's
    signal with a single annotated beat."""
    root = tmp_path_factory.mktemp("sparse")
    for f in data_root.iterdir():
        if f.name != "121.atr":
            (root / f.name).symlink_to(f)
    (root / "one_beat.hea").write_text((data_root / "121.hea").read_text())
    first = int(wfdbio.read_annotations((data_root / "121.atr").read_bytes()).indices[0])
    (root / "one_beat.atr").write_bytes(wfdbgen.write_annotations([(first, 1)]))
    return root


@pytest.fixture(scope="module")
def close_root(data_root, tmp_path_factory):
    """The dataset plus "close": 121's signal and annotated beats, with one
    more beat annotated 50 samples (0.14 s at 360 Hz) after its sixth.
    Returns the root and the two close peaks."""
    root = tmp_path_factory.mktemp("close")
    for f in data_root.iterdir():
        (root / f.name).symlink_to(f)
    (root / "close.hea").write_text((data_root / "121.hea").read_text())
    beats = wfdbio.read_annotations((data_root / "121.atr").read_bytes()).indices.tolist()
    beats.insert(6, beats[5] + 50)
    (root / "close.atr").write_bytes(wfdbgen.write_annotations([(b, 1) for b in beats]))
    return root, beats[5], beats[6]


class _Plan(Exception):
    pass


def _library_defaults():
    """(subcommand, parameter, library default) for each flag that feeds a library parameter."""
    cases = [("denoise", k, v, f"{name}.{k}") for name, m in bench.METHODS.items() for k, v in m.params.items()]
    n = enkf.FilterConfig.n_ensemble
    cases += [(cmd, "n_ensemble", n, "FilterConfig.n_ensemble") for cmd in ("denoise", "bench")]
    plan = [f for f in fields(bench.BenchPlan) if f.default is not MISSING]
    cases += [("bench", f.name, f.default, f"BenchPlan.{f.name}") for f in plan]
    # The input flags, the seeds and the fit's bins; --fs has no library
    # default, but one rate for all four subcommands (MIT-BIH's).
    default = lambda f, name: inspect.signature(f).parameters[name].default
    cases += [(cmd, "channel", bench.BenchPlan.channel, "BenchPlan.channel") for cmd in ("fit", "mix", "denoise")]
    cases += [(cmd, "fs", 360.0, "fs") for cmd in ("synth", "fit", "mix", "denoise")]
    cases += [
        ("denoise", "seed", enkf.FilterConfig.seed, "FilterConfig.seed"),
        ("synth", "seed", default(synthesize, "seed"), "synthesize.seed"),
        ("synth", "noise_std", default(synthesize, "noise_std"), "synthesize.noise_std"),
        ("fit", "n_bins", default(mean_beat, "n_bins"), "mean_beat.n_bins"),
    ]
    return [pytest.param(cmd, k, v, id=f"{cmd}-{source}") for cmd, k, v, source in cases]


class TestMethodTable:
    @pytest.mark.parametrize("command, name, default", _library_defaults())
    def test_flag_defaults_are_library_defaults(self, tmp_path, monkeypatch, command, name, default):
        """A flag's default is the one its library parameter has (so --taps
        must be both nlms's and rls's); bench's flags are read through the
        plan cmd_bench builds from them."""
        argv = {
            "denoise": ["denoise", "x.csv", "--method", "sg"],
            "bench": ["bench", "--records", "118"],
            "synth": ["synth"],
            "fit": ["fit", "x.csv"],
            "mix": ["mix", "x.csv", "y.csv", "--level", "6"],
        }[command]
        args = cli.build_parser().parse_args(["--data-root", str(tmp_path), *argv])
        if command == "bench":

            def capture(plan, data_root, jobs):
                raise _Plan(plan)

            monkeypatch.setattr(bench, "run_bench", capture)
            with pytest.raises(_Plan) as plan:
                args.func(args)
            args = plan.value.args[0]
        assert getattr(args, name) == default

    @pytest.mark.parametrize("name", [n for n, m in bench.METHODS.items() if m.params])
    def test_settings_bind_to_their_filters(self, name):
        method = bench.METHODS[name]
        inputs = ["noisy", "reference"] if method.needs_reference else ["noisy"]
        filters = {
            "sg": [baselines.sg_filter],
            "wavelet": [baselines.wavelet_denoise],
            "nlms": [baselines.nlms_denoise, baselines.nlms_batch],
            "rls": [baselines.rls_denoise, baselines.rls_batch],
            "tvd": [baselines.tvd_denoise],
        }[name]
        for f in filters:
            inspect.signature(f).bind(*inputs, **method.params)  # TypeError on a missing or unknown keyword

    def test_non_finite_output_fails_cell_and_denoise(self, data_root, tmp_path, monkeypatch, capsys):
        # The filter's output Signal rejects its own non-finite samples.
        nan_filter = lambda x, p, c: Signal(np.full(len(x), np.nan), x.fs)
        monkeypatch.setitem(bench.METHODS, "sg", replace(bench.METHODS["sg"], run=nan_filter))
        plan = bench.BenchPlan(records=("122",), methods=("sg",), snr_levels=(12.0,), duration_s=8.0)
        cells = bench.run_bench(plan, data_root)
        assert cells[0].report is None
        assert cells[0].error == "ValueError: invalid signal: non-finite at index 0"
        assert "failed: " in bench.table_csv(cells, plan)

        synth_dir = tmp_path / "s"
        assert cli.main(["synth", "--out-dir", str(synth_dir), "--beats", "8"]) == 0
        capsys.readouterr()
        rc = cli.main(["denoise", str(synth_dir / "signal.csv"), "--method", "sg", "--out", str(tmp_path / "o.csv")])
        assert rc == 1
        assert capsys.readouterr().err == "error: ValueError: invalid signal: non-finite at index 0\n"
        assert not (tmp_path / "o.csv").exists()

    def test_cli_import_needs_no_scipy(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        code = "import sys, ecgdenoise.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestBenchRun:
    def test_one_row_per_cell_plus_aggregates(self, small_result):
        plan, cells = small_result
        assert len(cells) == 2
        table = bench.table_csv(cells, plan)
        lines = table.strip().split("\n")
        assert lines[0] == (
            "record,channel,method,snr_in_db,snr_out_db,snr_improvement_db,"
            "rmse_mv,prd_pct,corr,params_digest,seed,status"
        )
        assert len(lines) == 1 + 2 + 2  # header + cells + aggregate rows
        assert sum(1 for ln in lines if ln.startswith("mean,")) == 2

    def test_rows_echo_seed_and_digest(self, small_result):
        plan, cells = small_result
        table = bench.table_csv(cells, plan)
        digest = bench.params_digest(plan)
        for ln in table.strip().split("\n")[1:]:
            assert digest in ln
        seed = bench.cell_seed(3, "121", "sg", 6.0)
        assert str(seed) in table

    def test_model_based_cells_detect_the_peaks_of_an_unannotated_record(self, sparse_root):
        plan = bench.BenchPlan(records=("121",), methods=("enkf", "ekf"), snr_levels=(12.0,), duration_s=10.0, n_ensemble=10)
        assert [c.error for c in bench.run_bench(plan, sparse_root)] == [None, None]

    def test_annotated_beats_closer_than_the_refractory_floor_fail_the_model_based_cells(self, close_root):
        """Two annotated beats 0.14 s apart fail the record's enkf and ekf
        cells, naming both annotated peaks, rather than dropping a beat.  The
        record's other cells run, and a batch-mate's rows (the failed unit is
        rerun one cell at a time) equal those of a run without the record."""
        root, first, second = close_root
        plan = bench.BenchPlan(
            records=("close", "121"), methods=("enkf", "ekf", "sg"), snr_levels=(12.0,), duration_s=10.0, n_ensemble=10
        )
        cells = {(c.record_id, c.method): c for c in bench.run_bench(plan, root)}
        message = f"ValueError: peaks {first} and {second} violate the 0.2 s refractory floor"
        assert cells["close", "enkf"].error == cells["close", "ekf"].error == message
        assert cells["close", "enkf"].report is cells["close", "ekf"].report is None
        assert cells["close", "sg"].error is None and cells["close", "sg"].report is not None
        outcome = lambda c: (c.method, c.seed, c.report, c.error)
        alone = [outcome(c) for c in bench.run_bench(replace(plan, records=("121",)), root)]
        assert [outcome(c) for (rid, _), c in cells.items() if rid == "121"] == alone

    def test_single_cell_plan_gives_one_data_and_one_aggregate_row(self, data_root):
        plan = bench.BenchPlan(
            records=("122",), methods=("sg",), snr_levels=(12.0,), noise="em", duration_s=8.0
        )
        cells = bench.run_bench(plan, data_root)
        lines = bench.table_csv(cells, plan).strip().split("\n")
        assert len(lines) == 3  # header, the cell, its aggregate
        assert lines[1].startswith("122,")
        assert lines[2].startswith("mean,")

    def test_failed_cell_becomes_row_not_crash(self, data_root, monkeypatch):
        # More wavelet levels than 4 s of signal can halve into: the cell must fail, not the run.
        monkeypatch.setitem(bench.METHODS, "wavelet", replace(bench.METHODS["wavelet"], params={"levels": 20}))
        plan = bench.BenchPlan(
            records=("121",),
            methods=("wavelet",),
            snr_levels=(6.0,),
            noise="em",
            duration_s=4.0,
        )
        cells = bench.run_bench(plan, data_root)
        assert len(cells) == 1
        assert cells[0].report is None
        assert cells[0].error
        table = bench.table_csv(cells, plan)
        assert "failed:" in table

    @pytest.mark.single_thread_blas
    def test_failed_batch_row_is_isolated(self, data_root, monkeypatch):
        """One enkf cell failing mid-record fails alone: its row names the
        sample, its batch-mates' rows equal those of a run without the fault,
        and every batched cell gets its own wall time."""
        plan = bench.BenchPlan(
            records=("118", "119"), methods=("enkf",), snr_levels=(12.0, 18.0), duration_s=4.0, n_ensemble=20
        )
        clean_run = bench.run_bench(plan, data_root)
        faulty_seed = bench.cell_seed(plan.seed, "119", "enkf", 12.0)
        resolve_config = enkf.resolve_config

        def faulty(cfg, *args):
            resolved = resolve_config(cfg, *args)
            if cfg.seed == faulty_seed:
                resolved = replace(resolved, q_theta=0.0, q_z=0.0, r_phi=0.0, r_s=1e-200)
            return resolved

        monkeypatch.setattr(enkf, "resolve_config", faulty)
        cells = bench.run_bench(plan, data_root)
        rows = bench.table_csv(cells, plan).splitlines()
        want = bench.table_csv(clean_run, plan).splitlines()
        bad = [r for r in rows if r.startswith("119,0,enkf,12,")]
        assert len(bad) == 1
        assert re.search(r",failed: SingularInnovationError: .* at sample \d+$", bad[0])
        for row in rows:
            if row.startswith(("118,", "119,0,enkf,18,")):
                assert row in want
        assert sum(r.startswith(("118,", "119,")) for r in rows) == 4
        assert all(c.wall_time > 0 for c in cells)

    def test_failed_canceller_row_is_isolated(self, data_root, monkeypatch):
        """A lockstep nlms row that comes back non-finite fails alone; its
        batch-mates' rows equal those of a run without the fault."""
        plan = bench.BenchPlan(records=("118", "119"), methods=("nlms",), snr_levels=(12.0, 18.0), duration_s=4.0)
        clean_run = bench.run_bench(plan, data_root)
        clean = bench.trim(*bench.load_record(data_root, "118"), plan.duration_s)[0]
        noise = bench.load_noise(plan.noise, clean.fs, lambda: data_root, "record 118")
        target = metrics.mix(clean, noise, 18.0).noisy.samples
        nlms_blocks = baselines._nlms_blocks

        def faulty(primaries, references, taps, mu):
            # The kernel puts a NaN in the 118 @ 18 dB row, in the lockstep unit and in its lone rerun.
            out = nlms_blocks(primaries, references, taps, mu)
            for row, primary in zip(out, primaries):
                if np.array_equal(primary.samples, target):
                    row[7] = np.nan
            return out

        monkeypatch.setattr(baselines, "_nlms_blocks", faulty)
        cells = bench.run_bench(plan, data_root)
        rows = bench.table_csv(cells, plan).splitlines()
        want = bench.table_csv(clean_run, plan).splitlines()
        bad = [r for r in rows if r.startswith("118,0,nlms,18,")]
        assert len(bad) == 1
        assert bad[0].endswith(",failed: ValueError: invalid signal: non-finite at index 7")
        for row in rows:
            if row.startswith(("118,0,nlms,12,", "119,")):
                assert row in want
        assert sum(r.startswith(("118,", "119,")) for r in rows) == 4
        assert all(c.wall_time > 0 for c in cells)

    @pytest.mark.single_thread_blas
    def test_unfactorable_rls_cell_is_isolated(self, data_root, monkeypatch):
        """An rls cell whose forgetting factor the block form cannot factor
        fails alone in its lockstep unit, naming the block; its unit-mates'
        rows equal those of a run without the fault."""
        plan = bench.BenchPlan(records=("118", "119"), methods=("rls",), snr_levels=(12.0, 18.0), duration_s=4.0)
        loaded = {r: bench.trim(*bench.load_record(data_root, r, plan.channel), plan.duration_s) for r in plan.records}
        noise = bench.load_noise(plan.noise, 360.0, lambda: data_root, "record 118")
        unit = bench.plan_cells(plan)
        clean_run = bench.run_cell(unit, loaded, noise, plan)
        faulty_seed = bench.cell_seed(plan.seed, "119", "rls", 12.0)
        forgetting = lambda ctx, p: 0.3 if ctx.cfg.seed == faulty_seed else p["forgetting"]
        monkeypatch.setitem(
            bench.METHODS,
            "rls",
            replace(
                bench.METHODS["rls"],
                run=lambda x, p, c: baselines.rls_denoise(x, c.reference, p["taps"], forgetting(c, p), p["delta"]),
                batch=lambda xs, p, cs: baselines.rls_batch(
                    xs, [c.reference for c in cs], p["taps"], min(forgetting(c, p) for c in cs), p["delta"]
                ),
            ),
        )
        cells = bench.run_cell(unit, loaded, noise, plan)
        for coord, cell, want in zip(unit, cells, clean_run):
            if coord == ("119", "rls", 12.0):
                assert cell.report is None
                assert re.fullmatch(
                    r"ConditioningError: rls innovation covariance not positive definite in the block from sample \d+",
                    cell.error,
                )
            else:
                assert cell.report == want.report

    @pytest.mark.single_thread_blas
    def test_batched_table_equals_cells_run_alone(self, data_root, monkeypatch):
        plan = bench.BenchPlan(
            records=("118", "119"),
            methods=("enkf", "nlms", "rls"),
            snr_levels=(12.0, 18.0),
            duration_s=4.0,
            n_ensemble=20,
        )
        batched = bench.table_csv(bench.run_bench(plan, data_root), plan)
        monkeypatch.setattr(bench, "BATCH_ROWS", 1)
        alone = bench.table_csv(bench.run_bench(plan, data_root), plan)
        assert batched == alone
        assert batched.count(",ok\n") == 12 + 6  # every cell and every aggregate

    def test_run_cell_called_once_per_unit(self, data_root, monkeypatch):
        plan = bench.BenchPlan(records=("118", "119"), snr_levels=(12.0, 18.0), duration_s=4.0, n_ensemble=20)
        run_cell = bench.run_cell
        sizes: list[int] = []
        monkeypatch.setattr(bench, "run_cell", lambda unit, *a: sizes.append(len(unit)) or run_cell(unit, *a))
        batched = bench.table_csv(bench.run_bench(plan, data_root), plan)
        assert sorted(sizes) == [1] * 16 + [4] * 3  # enkf, nlms, rls lockstep; 4 methods x 4 cells alone
        sizes.clear()
        monkeypatch.setattr(bench, "BATCH_ROWS", 1)
        alone = bench.table_csv(bench.run_bench(plan, data_root), plan)
        assert sizes == [1] * 28
        assert batched == alone
        assert batched.count(",ok\n") == 28 + 14

    # Six units: enkf and nlms units of 4 cells, and four sg cells alone.
    JOBS_PLAN = bench.BenchPlan(
        records=("118", "119"), methods=("enkf", "sg", "nlms"), snr_levels=(12.0, 18.0), duration_s=4.0, n_ensemble=20
    )

    @pytest.mark.single_thread_blas
    def test_output_does_not_depend_on_jobs(self, data_root, monkeypatch):
        """bench.csv and every SVG are byte-identical for 1 job, 2 jobs and
        more jobs than units (capped at one share per unit), with a failing
        lockstep row whose fault each forked child inherits."""
        plan = self.JOBS_PLAN
        faulty_seed = bench.cell_seed(plan.seed, "119", "enkf", 12.0)
        resolve_config = enkf.resolve_config

        def faulty(cfg, *args):
            resolved = resolve_config(cfg, *args)
            if cfg.seed == faulty_seed:
                resolved = replace(resolved, q_theta=0.0, q_z=0.0, r_phi=0.0, r_s=1e-200)
            return resolved

        monkeypatch.setattr(enkf, "resolve_config", faulty)
        fork_worker, forks = bench._fork_worker, []
        monkeypatch.setattr(bench, "_fork_worker", lambda *a: forks.append(1) or fork_worker(*a))
        outputs = {}
        for jobs in (1, 2, 50):
            forks.clear()
            cells = bench.run_bench(plan, data_root, jobs=jobs)
            outputs[jobs] = (bench.table_csv(cells, plan), bench.render_plots(cells, plan))
            assert len(forks) == min(jobs, 6) - 1
        assert outputs[2] == outputs[1] and outputs[50] == outputs[1]
        table, plots = outputs[1]
        assert sum(row.endswith(",ok") for row in table.splitlines()) == 11 + 6
        assert re.search(r"^119,0,enkf,12,.*,failed: SingularInnovationError: ", table, re.M)
        assert sorted(plots) == ["corr", "prd", "rmse", "snr_improvement"]
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            bench.run_bench(plan, data_root, jobs=0)

    @pytest.mark.single_thread_blas
    @pytest.mark.parametrize("fault", ["none", "child exits 3", "child sends short result", "parent raises"])
    def test_no_child_left_running(self, data_root, monkeypatch, tmp_path, fault):
        """After a normal run, a child's failure (exit status 3 or a short
        result: a BenchError naming the cells it took) and a raise in the
        parent's own work, no child process is left, not even a zombie: the
        parent kills and reaps them all."""
        plan = self.JOBS_PLAN
        parent, run_cell = os.getpid(), bench.run_cell
        took = tmp_path / "child_took"  # each cell a child took, one line each, written before it runs them

        def patched(unit, *args):
            if os.getpid() != parent:
                with took.open("a") as fh:
                    fh.writelines(f"{r}/{m}@{lv:g}dB\n" for r, m, lv in unit)
            if fault == "child exits 3" and os.getpid() != parent:
                os._exit(3)
            if fault == "parent raises" and os.getpid() == parent:
                raise KeyboardInterrupt
            if fault == "parent raises":
                time.sleep(60)  # the parent must kill this child, not wait for it
            return run_cell(unit, *args)

        monkeypatch.setattr(bench, "run_cell", patched)
        if fault == "child sends short result":
            monkeypatch.setattr(pickle, "dump", lambda obj, f, **k: f.write(pickle.dumps(obj)[:20]))
        t0 = time.perf_counter()
        if fault == "none":
            assert len(bench.run_bench(plan, data_root, jobs=2)) == 12
        elif fault == "parent raises":
            with pytest.raises(KeyboardInterrupt):
                bench.run_bench(plan, data_root, jobs=2)
            assert time.perf_counter() - t0 < 30
        else:
            how = "exited with status 3" if fault == "child exits 3" else "sent a short result"
            with pytest.raises(bench.BenchError) as raised:
                bench.run_bench(plan, data_root, jobs=2)
            named = ", ".join(took.read_text().splitlines())
            assert re.fullmatch(rf"bench worker \d+ for cells {re.escape(named)} {how}", str(raised.value))
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.single_thread_blas
    def test_units_are_taken_from_one_queue(self, data_root, monkeypatch, tmp_path):
        """With 2 jobs, the process that takes a slow unit runs nothing else:
        the other process takes every other unit from the queue."""
        plan = self.JOBS_PLAN
        ran, run_cell = tmp_path / "ran", bench.run_cell
        slow = bench.plan_cells(plan)[0]  # in the first unit, the enkf one

        def patched(unit, *args):
            with ran.open("a") as fh:
                fh.writelines(f"{os.getpid()} {r}/{m}@{lv:g}dB\n" for r, m, lv in unit)
            if slow in unit:
                time.sleep(3.0)
            return run_cell(unit, *args)

        monkeypatch.setattr(bench, "run_cell", patched)
        assert all(c.report is not None for c in bench.run_bench(plan, data_root, jobs=2))
        pids = dict(line.split(" ")[::-1] for line in ran.read_text().splitlines())
        assert len(pids) == 12
        holder = pids["{}/{}@{:g}dB".format(*slow)]
        alone = {cell for cell, pid in pids.items() if pid == holder}
        assert alone == {f"{r}/enkf@{lv:g}dB" for r in plan.records for lv in plan.snr_levels}
        assert len(set(pids.values())) == 2

    def test_unit_queue_hands_out_each_unit_once(self):
        """Five processes (four forked, more than the cores) take 20,000
        units from one queue: every unit is taken exactly once, each
        process's in rising order.  A lost or repeated hand-out fails the
        count; a stuck taker fails the 60-s alarm."""
        count, taken, pipes = 20_000, {}, {}

        def expire(*_):
            raise TimeoutError("the unit queue did not drain in 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        queue = bench._UnitQueue(count)
        try:
            work = lambda queue: list(iter(queue.take, None))
            for _ in range(4):
                pid, pipe = bench._fork_worker(work, queue)
                pipes[pid] = pipe
            taken[os.getpid()] = work(queue)
            for pid, pipe in pipes.items():
                with pipe:
                    taken[pid] = pickle.load(pipe)
            assert sorted(i for units in taken.values() for i in units) == list(range(count))
            assert all(units == sorted(units) for units in taken.values())
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            for pid in pipes:
                if pid not in taken:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            queue.close()

    @pytest.mark.single_thread_blas
    def test_child_killed_holding_the_queue_lock(self, data_root, monkeypatch, tmp_path):
        """A child killed while it holds the queue's lock, right after it took
        a unit, blocks no other taker: the kernel drops its lock, the parent
        takes every other unit, and the run ends in a BenchError naming the
        cells of the unit the child took.  A hang fails the 60-s alarm."""
        plan = self.JOBS_PLAN
        parent, lockf, took = os.getpid(), fcntl.lockf, tmp_path / "child_took"

        def dying(fd, cmd, *args):
            if cmd == fcntl.LOCK_UN and os.getpid() != parent:
                took.write_text(str(int.from_bytes(os.pread(fd, 8, 0), "little") - 1))
                os.kill(os.getpid(), signal.SIGKILL)
            return lockf(fd, cmd, *args)

        def expire(*_):
            raise TimeoutError("the run did not end in 60 s")

        monkeypatch.setattr(fcntl, "lockf", dying)
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            with pytest.raises(bench.BenchError) as raised:
                bench.run_bench(plan, data_root, jobs=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        coords = bench.plan_cells(plan)
        unit = bench.plan_units(plan, {r: 4 * 360 for r in plan.records})[int(took.read_text())]
        named = ", ".join(f"{r}/{m}@{lv:g}dB" for r, m, lv in (coords[i] for i in unit))
        assert re.fullmatch(rf"bench worker \d+ for cells {re.escape(named)} exited with status -9", str(raised.value))

    def test_noise_csv_read_at_the_record_rate(self, data_root, tmp_path):
        plan = lambda path: bench.BenchPlan(records=("122",), methods=("sg",), snr_levels=(12.0,), noise=str(path))
        timed = tmp_path / "noise250.csv"
        timed.write_bytes(wfdbio.write_csv(Signal(np.zeros(3000), 250.0)))
        with pytest.raises(wfdbio.CsvParseError, match="noise250.csv.*runs at 250 Hz"):
            bench.run_bench(plan(timed), data_root)
        untimed = tmp_path / "noise_mv.csv"
        untimed.write_bytes(wfdbio.format_rows(np.zeros(3000), head=b"mv\n"))
        with pytest.raises(wfdbio.CsvParseError, match="noise_mv.csv: no t column"):
            bench.run_bench(plan(untimed), data_root)
        ok = tmp_path / "noise360.csv"
        ok.write_bytes(wfdbio.write_csv(Signal(np.random.default_rng(0).normal(size=30000), 360.0)))
        cells = bench.run_bench(replace(plan(ok), duration_s=8.0), data_root)
        assert cells[0].report is not None

    def test_unreachable_level_fails_its_cells_alone(self, data_root):
        """A level the mix cannot reach fails each of its cells, a lockstep one too, and no other."""
        plan = bench.BenchPlan(records=("122",), methods=("sg", "nlms"), snr_levels=(12.0, 4000.0), duration_s=8.0)
        rule = "reachable by a finite, positive noise gain that changes the signal"
        for c in bench.run_bench(plan, data_root):
            unreachable = f"SettingError: target_snr_db must be {rule}, got 4000" if c.input_snr == 4000.0 else None
            assert c.error == unreachable and (c.report is None) == (unreachable is not None)

    def test_snr_in_tracks_target(self, small_result):
        # Metrics run on the post-warm-up window, so the measured input SNR
        # sits near, not exactly at, the full-mix calibration target.
        _, cells = small_result
        for c in cells:
            assert c.report.snr_in == pytest.approx(c.input_snr, abs=2.0)

    def test_enkf_unit_memory_per_row_and_sample(self):
        """The traced peak of an enkf unit grows per row by the bytes per
        sample the BATCH_ROWS comment counts (32: noisy signal, observed
        phase, angular velocity and the output buffer, which the output
        Signal replaces one row at a time), plus the row's noise block; a
        row keeps no noise reference."""
        row_bytes, n_ensemble = 32, 20
        clean, _, peaks = synthesize(default_morphology(), [0.8] * 16, 360.0, noise_std=0.0, seed=3)
        loaded = {n: bench.trim(clean, peaks, n / 360.0) for n in (2000, 4000)}
        noise = Signal(np.random.default_rng(1).normal(size=5000), 360.0)
        plan = bench.BenchPlan(records=("118",), n_ensemble=n_ensemble)

        def peak(rows, n):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                unit = [(n, "enkf", level) for level in (0.0, 6.0, 12.0, 18.0)[:rows]]
                cells = bench.run_cell(unit, loaded, noise, plan)
                top = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert all(c.report is not None for c in cells)
            return top

        block = enkf.NOISE_BLOCK * 4 * n_ensemble * 8
        per_row = {n: (peak(4, n) - peak(2, n)) / 2 for n in loaded}
        for n, grown in per_row.items():
            assert grown <= row_bytes * n + block + 16_000, n
        per_sample = (per_row[4000] - per_row[2000]) / 2000
        assert 24 <= per_sample <= row_bytes + 4


    def test_split_enkf_unit_memory_per_row(self, monkeypatch):
        """A job cut into S lockstep segments holds S noise blocks, and still
        32 B per sample (its output buffer is one n-sample array, written
        over each segment's kept span): the traced peak of a split enkf unit
        grows per job by at most that, plus for each of its S lockstep rows
        the slack a lone row gets (its stream, members, observation block
        and step temporaries).  The rule is shortened here so a 4,000-sample
        job runs as 11 segments, which keeps the test fast and makes the
        blocks outweigh the samples."""
        monkeypatch.setattr(enkf, "MIN_SEGMENT_S", 1.0)
        monkeypatch.setattr(enkf, "SPIN_UP_S", 0.25)
        row_bytes, n_ensemble, n = 32, 20, 4000
        segments = len(enkf.segments(n, 360.0)[1])
        assert segments == 11
        clean, _, peaks = synthesize(default_morphology(), [0.8] * 16, 360.0, noise_std=0.0, seed=3)
        loaded = {n: bench.trim(clean, peaks, n / 360.0)}
        noise = Signal(np.random.default_rng(1).normal(size=5000), 360.0)
        plan = bench.BenchPlan(records=("118",), n_ensemble=n_ensemble)

        def peak(rows):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                unit = [(n, "enkf", level) for level in (0.0, 6.0, 12.0, 18.0)[:rows]]
                cells = bench.run_cell(unit, loaded, noise, plan)
                top = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert all(c.report is not None for c in cells)
            return top

        block = enkf.NOISE_BLOCK * 4 * n_ensemble * 8
        grown = (peak(4) - peak(2)) / 2
        assert segments * block <= grown <= row_bytes * n + segments * (block + 16_000)

    def test_nlms_unit_memory_per_row_and_sample(self):
        """The traced peak of an nlms unit is the bytes per sample the
        BATCH_ROWS comment counts for each row (32: noisy signal, reference,
        output buffer and padded reference, whose place the output Signal's
        copy takes), plus the block kernel's chunk arrays, which
        baselines.NLMS_CHUNK_BYTES bounds over the whole unit: that part grows
        with neither the length nor the row count."""
        row_bytes = 32
        clean, _, peaks = synthesize(default_morphology(), [0.8] * 16, 360.0, noise_std=0.0, seed=3)
        loaded = {n: bench.trim(clean, peaks, n / 360.0) for n in (2000, 4000)}
        noise = Signal(np.random.default_rng(1).normal(size=5000), 360.0)
        plan = bench.BenchPlan(records=("118",))

        def peak(rows, n):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                unit = [(n, "nlms", level) for level in (0.0, 6.0, 12.0, 18.0)[:rows]]
                cells = bench.run_cell(unit, loaded, noise, plan)
                top = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert all(c.report is not None for c in cells)
            return top

        peaks_by = {(rows, n): peak(rows, n) for rows in (1, 2, 4) for n in loaded}
        for n in loaded:
            assert (peaks_by[4, n] - peaks_by[2, n]) / 2 <= row_bytes * n + 16_000, n
        # A chunk rounds down to whole blocks: up to one block per row
        # (9 kB at 16 taps) under the budget.
        chunk = [top - rows * row_bytes * n for (rows, n), top in peaks_by.items()]
        assert max(chunk) <= baselines.NLMS_CHUNK_BYTES + 96_000
        assert max(chunk) - min(chunk) <= 4 * 9_000 + 16_000
        per_sample = ((peaks_by[4, 4000] - peaks_by[2, 4000]) - (peaks_by[4, 2000] - peaks_by[2, 2000])) / 2 / 2000
        assert 24 <= per_sample <= row_bytes + 4

    def test_rls_unit_memory_per_row_and_sample(self):
        """The traced peak of an rls unit is the bytes per sample the
        BATCH_ROWS comment counts for each row (32, as for nlms), plus each
        row's recursion state and one block's working arrays (about 19 kB at
        16 taps), which do not grow with the length."""
        row_bytes, state = 32, 24_000
        clean, _, peaks = synthesize(default_morphology(), [0.8] * 16, 360.0, noise_std=0.0, seed=3)
        loaded = {n: bench.trim(clean, peaks, n / 360.0) for n in (2000, 4000)}
        noise = Signal(np.random.default_rng(1).normal(size=5000), 360.0)
        plan = bench.BenchPlan(records=("118",))

        def peak(rows, n):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                unit = [(n, "rls", level) for level in (0.0, 6.0, 12.0, 18.0)[:rows]]
                cells = bench.run_cell(unit, loaded, noise, plan)
                top = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert all(c.report is not None for c in cells)
            return top

        peaks_by = {(rows, n): peak(rows, n) for rows in (2, 4) for n in loaded}
        for n in loaded:
            assert (peaks_by[4, n] - peaks_by[2, n]) / 2 <= row_bytes * n + state, n
        # A 4-row unit peaks inside the kernel at both lengths.
        rest = [peaks_by[4, n] - 4 * row_bytes * n for n in loaded]
        assert max(rest) <= 4 * state and max(rest) - min(rest) <= 16_000
        per_sample = (peaks_by[4, 4000] - peaks_by[4, 2000]) / 4 / 2000
        assert row_bytes - 4 <= per_sample <= row_bytes + 1


class TestSvg:
    def test_deterministic(self):
        s = [Series("a", (0.0, 1.0, 2.0), (1.0, 0.5, 0.7))]
        assert render_line_chart(s, "t", "x", "y") == render_line_chart(s, "t", "x", "y")

    def test_flat_series_is_horizontal_polyline(self):
        svg = render_line_chart([Series("flat", (0.0, 1.0, 2.0), (3.0, 3.0, 3.0))], "t", "x", "y")
        pts = [p for line in svg.splitlines() if "polyline" in line for p in line.split('"')[1].split()]
        ys = {p.split(",")[1] for p in pts}
        assert len(ys) == 1

    def test_two_series_two_polylines_two_legend_entries(self):
        svg = render_line_chart(
            [
                Series("alpha", (0.0, 1.0), (0.0, 1.0)),
                Series("beta", (0.0, 1.0), (1.0, 0.0)),
            ],
            "t",
            "x",
            "y",
        )
        assert svg.count("<polyline") == 2
        assert "alpha" in svg and "beta" in svg

    def test_empty_rejected(self):
        with pytest.raises(PlotError):
            render_line_chart([], "t", "x", "y")
        with pytest.raises(PlotError):
            render_line_chart([Series("a", (0.0,), (1.0,))], "t", "x", "y")


class TestCliSynthFit:
    def test_synth_defaults(self, tmp_path, capsys):
        out = tmp_path / "synth"
        rc = cli.main(["synth", "--out-dir", str(out), "--beats", "12", "--seed", "3"])
        assert rc == 0
        sig = wfdbio.read_csv((out / "signal.csv").read_bytes(), fs=360.0)
        assert len(sig) > 360 * 8
        p2p = float(sig.samples.max() - sig.samples.min())
        assert 0.8 < p2p < 1.6  # about the unit R amplitude of the default morphology

    def test_synth_constant_rr_peak_spacing(self, tmp_path):
        out = tmp_path / "synth"
        rc = cli.main(
            ["synth", "--out-dir", str(out), "--beats", "6", "--rr", "1.0", "--noise-std", "0"]
        )
        assert rc == 0
        peaks = [int(v) for v in (out / "peaks.csv").read_text().split()[1:]]
        assert all(b - a == 360 for a, b in zip(peaks, peaks[1:]))

    def test_fit_round_trip_on_synthetic(self, tmp_path, capsys):
        synth_dir = tmp_path / "s"
        assert cli.main(["synth", "--out-dir", str(synth_dir), "--beats", "40", "--seed", "8"]) == 0
        params_path = tmp_path / "params.json"
        rc = cli.main(
            [
                "fit",
                str(synth_dir / "signal.csv"),
                "--fs",
                "360",
                "--bins",
                "128",
                "--out",
                str(params_path),
            ]
        )
        assert rc == 0
        from ecgdenoise.core import TWO_PI
        from ecgdenoise.model import GaussianWaveParams, default_morphology, wave_sum

        fitted = GaussianWaveParams.from_dict(json.loads(params_path.read_text()))
        want = default_morphology()
        # The recovered morphology must reproduce the true beat within 2% of
        # the R amplitude.  Individual Q/S parameters carry a floor from the
        # half-step lag of the discrete transition, so they get a looser box.
        grid = np.linspace(0.0, TWO_PI, 512, endpoint=False)
        curve_rms = float(np.sqrt(np.mean((wave_sum(grid, fitted) - wave_sum(grid, want)) ** 2)))
        assert curve_rms < 0.02 * np.abs(want.alpha).max()
        for k in ("alpha", "b", "theta"):
            rel = np.abs(getattr(fitted, k) - getattr(want, k)) / np.maximum(
                np.abs(getattr(want, k)), 1e-9
            )
            assert rel.max() < 0.2

    def test_fit_seconds_trims_like_bench(self, data_root, monkeypatch):
        # 40.3 s at 360 Hz is 14507.999... samples: truncating keeps 14507,
        # the bench's rounding keeps 14508.
        seen = []
        real = cli.mean_beat
        monkeypatch.setattr(cli, "mean_beat", lambda signal, *a, **k: seen.append(len(signal)) or real(signal, *a, **k))
        assert cli.main(["--data-root", str(data_root), "fit", "118", "--seconds", "40.3"]) == 0
        assert seen == [14508]
        assert len(bench.trim(*bench.load_record(data_root, "118"), 40.3)[0]) == 14508

    @pytest.mark.parametrize("command", ["fit", "enkf", "ekf"])
    def test_fit_rejects_close_annotated_beats_as_the_filters_do(self, close_root, tmp_path, monkeypatch, capsys, command):
        root, first, second = close_root
        monkeypatch.chdir(tmp_path)
        argv = ["fit", "close"] if command == "fit" else ["denoise", "close", "--method", command]
        assert cli.main(["--data-root", str(root), *argv]) == 1
        message = f"peaks {first} and {second} violate the 0.2 s refractory floor"
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert list(tmp_path.iterdir()) == []  # nothing written

    @pytest.mark.parametrize("method", ["enkf", "ekf"])
    @pytest.mark.parametrize("source", ["csv", "record", "csv-6-beats"])
    def test_fit_writes_the_morphology_the_filters_fit(self, data_root, tmp_path, monkeypatch, source, method):
        """A filter given fit's JSON writes the same bytes as one that fits
        its own morphology: detected peaks on a CSV (of only 6 beats too, as
        fit has no beat-count rule the filters lack), annotated on a record."""
        monkeypatch.chdir(tmp_path)
        if source != "record":
            beats = "6" if source == "csv-6-beats" else "16"
            assert cli.main(["synth", "--out-dir", "s", "--beats", beats, "--seed", "5"]) == 0
        x = "s/signal.csv" if source != "record" else "121"
        base = ["--data-root", str(data_root)]
        assert cli.main(base + ["fit", x, "--out", "m.json"]) == 0
        denoise = base + ["denoise", x, "--method", method, "--n-ensemble", "10", "--out"]
        assert cli.main(denoise + ["own.csv"]) == 0
        assert cli.main(denoise + ["given.csv", "--params", "m.json"]) == 0
        assert Path("own.csv").read_bytes() == Path("given.csv").read_bytes()

    def test_fit_record_residual(self, data_root, capsys):
        rc = cli.main(
            ["--data-root", str(data_root), "fit", "118", "--seconds", "60"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        pct = float(out.rsplit("(", 1)[1].split("%")[0])
        assert pct < 20.0


class TestCliMixDenoise:
    def test_mix_check_level(self, data_root, tmp_path, capsys):
        rc = cli.main(
            [
                "--data-root",
                str(data_root),
                "mix",
                "118",
                "em",
                "--level",
                "12",
                "--out-dir",
                str(tmp_path / "m"),
                "--check",
            ]
        )
        assert rc == 0
        assert "12.000000" in capsys.readouterr().out

    def test_mix_reads_the_noise_record_channel_bench_reads(self, data_root, tmp_path):
        """--channel picks the clean record's channel; a noise record is read at bench.NOISE_CHANNEL, as bench reads it."""
        argv = ["--data-root", str(data_root), "mix", "118", "em", "--level", "12", "--channel", "1"]
        assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
        clean = bench.load_record(data_root, "118", 1)[0]
        noise = bench.load_record(data_root, "em", 0)[0]
        want = wfdbio.write_csv(metrics.mix(clean, noise, 12.0).scaled_noise)
        assert (tmp_path / "reference.csv").read_bytes() == want

    def test_denoise_tvd_lambda_zero_is_identity(self, tmp_path):
        synth_dir = tmp_path / "s"
        assert cli.main(["synth", "--out-dir", str(synth_dir), "--beats", "8"]) == 0
        out_csv = tmp_path / "out.csv"
        rc = cli.main(
            [
                "denoise",
                str(synth_dir / "signal.csv"),
                "--method",
                "tvd",
                "--lambda",
                "0",
                "--out",
                str(out_csv),
            ]
        )
        assert rc == 0
        a = wfdbio.read_csv((synth_dir / "signal.csv").read_bytes(), 360.0)
        b = wfdbio.read_csv(out_csv.read_bytes(), 360.0)
        assert np.array_equal(a.samples, b.samples)

    def test_denoise_enkf_seed_reproducible(self, tmp_path):
        synth_dir = tmp_path / "s"
        assert cli.main(["synth", "--out-dir", str(synth_dir), "--beats", "8"]) == 0
        outs = []
        for name in ("a.csv", "b.csv"):
            rc = cli.main(
                [
                    "denoise",
                    str(synth_dir / "signal.csv"),
                    "--method",
                    "enkf",
                    "--seed",
                    "7",
                    "--n-ensemble",
                    "30",
                    "--out",
                    str(tmp_path / name),
                ]
            )
            assert rc == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_denoise_detects_the_peaks_of_a_record_with_one_beat(self, sparse_root, tmp_path):
        argv = ["--data-root", str(sparse_root), "denoise", "one_beat", "--method", "ekf", "--out", str(tmp_path / "o.csv")]
        assert cli.main(argv) == 0

    def test_denoise_clean_checked_before_filtering(self, tmp_path, monkeypatch, capsys):
        """A --clean reference of another length is bad input: it fails
        before the filter runs, naming --clean."""
        monkeypatch.chdir(tmp_path)
        Path("long.csv").write_bytes(wfdbio.write_csv(Signal(np.sin(np.arange(2000) / 9.0), 360.0)))
        Path("short.csv").write_bytes(wfdbio.write_csv(Signal(np.sin(np.arange(1000) / 9.0), 360.0)))
        filtered = []
        sg_filter = baselines.sg_filter
        monkeypatch.setattr(baselines, "sg_filter", lambda *a, **k: filtered.append(1) or sg_filter(*a, **k))
        assert cli.main(["denoise", "long.csv", "--method", "sg", "--clean", "short.csv"]) == 2
        err = capsys.readouterr().err
        assert err == ("error: --clean must match the signal's length and rate: 1000 samples at 360 Hz, "
                       "signal 2000 at 360 Hz\n")
        assert filtered == [] and not Path("denoised.csv").exists()

    def test_denoise_rls_unfactorable_block_exits_1(self, tmp_path, monkeypatch, capsys):
        """A forgetting factor too small for the block form fails the command
        and names the block; no output is written."""
        monkeypatch.chdir(tmp_path)
        rng = np.random.default_rng(3)
        Path("noisy.csv").write_bytes(wfdbio.write_csv(Signal(rng.normal(size=2000), 360.0)))
        Path("ref.csv").write_bytes(wfdbio.write_csv(Signal(rng.normal(size=2000), 360.0)))
        argv = ["denoise", "noisy.csv", "--method", "rls", "--reference", "ref.csv", "--forgetting", "0.3"]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: ConditioningError: rls innovation covariance not positive definite "
                            r"in the block from sample \d+\n", err)
        assert not Path("denoised.csv").exists()

    @pytest.mark.parametrize("argv, message", FLAG_ROWS)
    def test_bad_size_or_encoding_is_a_usage_error(self, world, monkeypatch, capsys, argv, message):
        run_in_process(world, monkeypatch, capsys, argv, message)


class TestBadInput:
    """Every bad record, file or flag is a core.InputError or an OSError, so
    exit 2, whichever reader raised it (test_bad_input.py holds each case and
    its message); a good record's header comment may hold any bytes."""

    @pytest.mark.parametrize("argv, message", INPUT_ROWS)
    def test_bad_input_exits_2_naming_it(self, world, monkeypatch, capsys, argv, message):
        run_in_process(world, monkeypatch, capsys, argv, message)

    def test_header_comment_need_not_be_utf8(self, world):
        samples = lambda name: bench.load_record(world, name)[0].samples
        assert np.array_equal(samples("comment"), samples("121"))

    def test_any_input_error_exits_2(self, tmp_path, monkeypatch, capsys):
        """The exit code follows the type: an InputError subclass that cli.py
        never names exits 2, named after the file it came from."""

        class OddInputError(InputError):
            pass

        def odd(*args, **kwargs):
            raise OddInputError("an odd input")

        monkeypatch.chdir(tmp_path)
        Path("signal.csv").write_bytes(wfdbio.write_csv(Signal(np.sin(np.arange(2000) / 9.0), 360.0)))
        monkeypatch.setattr(wfdbio, "read_csv", odd)
        assert "OddInputError" not in Path(cli.__file__).read_text()
        assert cli.main(["denoise", "signal.csv", "--method", "sg"]) == 2
        assert capsys.readouterr().err == "error: signal.csv: an odd input\n"
        assert not Path("denoised.csv").exists()


@pytest.fixture(scope="module")
def two_file_root(tmp_path_factory):
    """The synthetic records 121 and em, and two records whose header names
    a file per signal, {name}_0.dat and {name}_1.dat, holding 121's two
    signals: "two", and "twosum", whose second file has 3 zeroed bytes."""
    root = tmp_path_factory.mktemp("two")
    wfdbgen.make_ecg_record(root, "121", wfdbgen.RECORD_SECONDS["121"])
    wfdbgen.make_noise_record(root, "em", wfdbgen.NOISE_SECONDS["em"])
    record_line, *signal_lines = (root / "121.hea").read_text().splitlines()[:3]
    frames = wfdbio.decode_212((root / "121.dat").read_bytes(), int(record_line.split()[3]), 2)
    for name in ("two", "twosum"):
        lines = [ln.replace("121.dat", f"{name}_{ch}.dat") for ch, ln in enumerate(signal_lines)]
        (root / f"{name}.hea").write_text("\n".join([record_line.replace("121", name, 1), *lines]) + "\n")
        (root / f"{name}.atr").write_bytes((root / "121.atr").read_bytes())
        for ch in (0, 1):
            (root / f"{name}_{ch}.dat").write_bytes(wfdbgen.encode_212(frames[:, ch : ch + 1]))
    dat = (root / "twosum_1.dat").read_bytes()
    assert dat[300:303] != bytes(3)
    (root / "twosum_1.dat").write_bytes(dat[:300] + bytes(3) + dat[303:])
    return root


class TestMultiFileRecord:
    """A WFDB record may keep each signal in a file of its own: a channel is
    decoded from its own file, alone, and reads as the same channel of a
    record that keeps both signals in one file."""

    @pytest.mark.parametrize("channel", [0, 1])
    def test_each_channel_reads_its_own_file(self, two_file_root, tmp_path, channel):
        (mine, beats), (theirs, their_beats) = (bench.load_record(two_file_root, n, channel) for n in ("two", "121"))
        assert np.array_equal(mine.samples, theirs.samples) and np.array_equal(beats.indices, their_beats.indices)
        for name in ("121", "two"):
            out = tmp_path / name
            for argv in (
                ["fit", name, "--out", str(out / "fit.json")],
                ["denoise", name, "--method", "sg", "--out", str(out / "sg.csv")],
                ["bench", "--records", name, "--methods", "sg", "--levels", "12", "--duration", "10", "--out-dir", str(out)],
            ):
                assert cli.main(["--data-root", str(two_file_root), *argv, "--channel", str(channel)]) == 0
        for output in ("fit.json", "sg.csv"):
            assert (tmp_path / "two" / output).read_bytes() == (tmp_path / "121" / output).read_bytes()
        rows = (tmp_path / "two" / "bench.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(",ok") for row in rows)

    def test_checksum_error_names_the_records_channel(self, two_file_root, tmp_path, capsys):
        argv = ["--data-root", str(two_file_root), "denoise", "twosum", "--method", "sg", "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv + ["--channel", "0"]) == 0  # its own file is whole
        capsys.readouterr()
        assert cli.main(argv + ["--channel", "1"]) == 2
        header = wfdbio.read_header((two_file_root / "twosum.hea").read_text())
        got = capsys.readouterr().err
        assert re.fullmatch(rf"error: record twosum: channel 1: checksum -?\d+ does not match header {header.signals[1].checksum}\n", got)


class TestCliBench:
    def test_small_bench_writes_artifacts(self, data_root, tmp_path, capsys):
        out = tmp_path / "bench"
        rc = cli.main(
            [
                "--data-root",
                str(data_root),
                "bench",
                "--records",
                "121",
                "--methods",
                "sg,tvd",
                "--levels",
                "6,12",
                "--duration",
                "10",
                "--out-dir",
                str(out),
            ]
        )
        assert rc == 0
        table = (out / "bench.csv").read_text()
        assert len(table.strip().split("\n")) == 1 + 4 + 4
        for name in ("snr_improvement", "corr", "prd", "rmse"):
            assert (out / f"{name}.svg").exists()

    @pytest.mark.single_thread_blas
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_summary_reports_wall_time_and_jobs(self, data_root, tmp_path, capsys, jobs):
        """stderr's summary gives run_bench's wall time, the job count and the
        cells' summed time, labelled as such; the files match --jobs 1's."""
        argv = ["--data-root", str(data_root), "bench", "--records", "121,122", "--methods", "sg,tvd"]
        argv += ["--levels", "6,12", "--duration", "6"]
        assert cli.main(argv + ["--jobs", str(jobs), "--out-dir", str(tmp_path / "out")]) == 0
        summary = capsys.readouterr().err.strip()
        pattern = rf"8 cells \(0 failed\) in \d+\.\d s wall with --jobs {jobs} \(\d+\.\d s of cell time\) -> .*/bench\.csv"
        assert re.fullmatch(pattern, summary), summary
        if jobs > 1:
            assert cli.main(argv + ["--jobs", "1", "--out-dir", str(tmp_path / "one")]) == 0
            files = lambda out: {f.name: f.read_bytes() for f in out.iterdir()}
            assert files(tmp_path / "out") == files(tmp_path / "one")

    def test_data_root_env(self, data_root, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.DATA_ENV, str(data_root))
        rc = cli.main(
            ["mix", "121", "em", "--level", "0", "--out-dir", str(tmp_path / "m"), "--check"]
        )
        assert rc == 0
        assert "0.000000" in capsys.readouterr().out

    def test_no_data_root_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv(cli.DATA_ENV, raising=False)
        rc = cli.main(["mix", "118", "em", "--level", "0", "--out-dir", str(tmp_path)])
        assert rc == 2


class TestPlanRules:
    """A plan keeps 2 samples per record to score past the warm-up (a plan
    that breaks a plan rule is a row of test_bad_input.py)."""

    def test_two_scored_samples_run(self, world, tmp_path, capsys):
        """round(2.006 * 360) = 722 samples leave 2 past the warm-up: enough for every metric."""
        out = tmp_path / "out"
        argv = ["--data-root", str(world), "bench", "--records", "121", "--methods", "sg", "--levels", "12"]
        assert cli.main(argv + ["--duration", "2.006", "--out-dir", str(out)]) == 0
        rows = (out / "bench.csv").read_text().splitlines()[1:]
        assert len(rows) == 2 and all(row.endswith(",ok") for row in rows)


class TestNoiseRule:
    """mix and bench read their noise by one rule (bench.load_noise): a noise
    record at the rate of the signal it is added to, or a "t,mv" CSV whose t
    column runs at that rate (other noise is a row of test_bad_input.py)."""

    def test_mix_reads_a_noise_csv_at_the_clean_rate(self, world, tmp_path, monkeypatch):
        """A 250 Hz noise CSV mixes into a 250 Hz record at the default --fs of 360."""
        monkeypatch.chdir(tmp_path)
        noise = world / "noise250.csv"
        argv = ["--data-root", str(world), "mix", "r250", str(noise), "--level", "12", "--out-dir", "out"]
        assert cli.main(argv) == 0
        clean = bench.load_record(world, "r250")[0]
        want = metrics.mix(clean, wfdbio.read_csv(noise.read_bytes(), 250.0), 12.0)
        assert Path("out/reference.csv").read_bytes() == wfdbio.write_csv(want.scaled_noise)

    def test_csv_only_mix_needs_no_data_root(self, world, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli.DATA_ENV, raising=False)
        clean = bench.load_record(world, "121")[0]
        Path("clean.csv").write_bytes(wfdbio.write_csv(clean))
        Path("noise360.csv").write_bytes((world / "noise360.csv").read_bytes())
        assert cli.main(["mix", "clean.csv", "noise360.csv", "--level", "12", "--out-dir", "out"]) == 0
        noise = wfdbio.read_csv(Path("noise360.csv").read_bytes(), 360.0)
        assert Path("out/noisy.csv").read_bytes() == wfdbio.write_csv(metrics.mix(clean, noise, 12.0).noisy)
