import argparse
import concurrent.futures
import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest

import bishadow.certification
import bishadow.cli
import bishadow.config
import bishadow.refinement
from bishadow.certification import PASS_TOL
from bishadow.cli import main
from bishadow.jsonwriter import SLICE, plain
from bishadow.refinement import GraphTransformError
from bishadow.shadowing import BallInvariantError, ShadowProblem, UnstableSolveError
from bishadow.systems import Phase

from _oracles import cat_cycle, margins_csv_rows

BASE_CONFIG = {
    "system": {"type": "cat_map"},
    "pseudo_orbit": {
        "generator": {"start": [0.13, 0.41], "lengths": [3, 3, 3],
                      "jump_amp": 1e-4, "rng_seed": 42}
    },
    "certification": {"lambda": 0.4, "epsilon": 0.0, "delta": 1e-4},
    "solver": {"lambda_tilde": 0.5},
    "perturbation": {"type": "shift", "offset": [1e-4, 0.0]},
    "sweep": {"axis": "delta", "values": [1e-5, 1e-4, 2e-4]},
}


REFINE_PAYLOAD = {
    "system": {"type": "perturbed_cat_map", "amplitude": 0.005},
    "pseudo_orbit": {
        "generator": {"start": [0.3, 0.7], "lengths": [3, 3, 3],
                      "jump_amp": 1e-5, "rng_seed": 7}
    },
    "certification": {"lambda": 0.4},
    "refinement": {"lambda_tilde": 0.5},
    "splitting": {"strategy": "power"},
}

#: closed: the last seed is the first
SHALLOW_POWER_CYCLE = {
    "system": {"type": "perturbed_cat_map", "amplitude": 0.005},
    "pseudo_orbit": {
        "seeds": [[0.0, 0.2727272727272727], [0.2727272727272727, 0.2727272727272727],
                  [0.8181818181818181, 0.5454545454545454],
                  [0.18181818181818166, 0.36363636363636354],
                  [0.7272727272727268, 0.5454545454545452], [0.0, 0.2727272727272727]],
        "lengths": [1] * 5,
    },
    "certification": {"lambda": 0.45, "delta": 0.05},
    "refinement": {"lambda_tilde": 0.6},
    "splitting": {"strategy": "power", "depth": 1},
}


def _precondition_failure():
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["pseudo_orbit"]["generator"]["jump_amp"] = 5e-3
    payload["certification"]["delta"] = 5e-3
    return payload


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(tmp_path, command, payload=None, extra=(), name="out"):
    cfg = write_config(tmp_path, BASE_CONFIG if payload is None else payload,
                       name=f"{name}.json")
    out = tmp_path / f"{name}.txt"
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    return code, out


class TestExitCodes:
    def test_certify_pass(self, tmp_path):
        code, out = run(tmp_path, "certify")
        assert code == 0
        report = json.loads(out.read_text())
        assert report["certificate"]["passed"] is True
        assert report["version"]

    def test_certify_fail_names_binding(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["certification"]["lambda"] = 0.3
        code, out = run(tmp_path, "certify", payload)
        assert code == 1
        report = json.loads(out.read_text())
        assert report["binding"]["condition"] == "contraction_product"

    def test_malformed_json_exit_3_no_output(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{ not json")
        out = tmp_path / "never.txt"
        assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()

    def test_usage_error_exits_3(self, tmp_path, capsys):
        assert main(["certify"]) == 3
        assert "--config" in capsys.readouterr().err

    def test_parser_built_once(self, tmp_path, monkeypatch, capsys):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        bishadow.cli._parser.cache_clear()  # so that the count does not depend on earlier tests
        assert run(tmp_path, "certify", name="a")[0] == 0
        assert run(tmp_path, "certify", name="b")[0] == 0
        assert main(["certify"]) == 3
        assert built.count("bishadow") == 1

    def test_flags_of_other_subcommands_rejected(self, tmp_path):
        for command, flag in (("shadow", ("--format", "csv")), ("shadow", ("--jobs", "4")),
                              ("refine", ("--jobs", "2")), ("sweep", ("--format", "csv"))):
            code, out = run(tmp_path, command, extra=flag, name=f"{command}{flag[0]}")
            assert code == 3
            assert not out.exists()

    def test_output_format_key_rejected(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["output"] = {"format": "csv"}
        code, out = run(tmp_path, "certify", payload)
        assert code == 3
        assert not out.exists()

    def test_unknown_key_rejected(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["systm"] = payload.pop("system")
        code, _ = run(tmp_path, "certify", payload)
        assert code == 3

    def test_shadow_ok(self, tmp_path):
        code, out = run(tmp_path, "shadow")
        assert code == 0
        report = json.loads(out.read_text())
        assert report["result"]["converged"] is True
        assert max(report["result"]["distances"]) <= 0.1
        assert "closure" not in report["result"]

    def test_shadow_precondition_failure(self, tmp_path):
        code, out = run(tmp_path, "shadow", _precondition_failure())
        assert code == 1
        assert json.loads(out.read_text())["error"]["kind"] == "precondition"

    def test_periodic_reports_closure(self, tmp_path):
        payload = {
            "system": {"type": "cat_map"},
            "pseudo_orbit": {"seeds": [[0.0, 0.0], [0.0, 0.0]], "lengths": [1]},
            "certification": {"lambda": 0.4, "epsilon": 0.0, "delta": 0.0},
            "solver": {"lambda_tilde": 0.5},
        }
        code, out = run(tmp_path, "periodic", payload)
        assert code == 0
        result = json.loads(out.read_text())["result"]
        # the exact fixed point: the first update is zero, the second the polish
        assert result["closure"] == {"pre_polish": 0.0, "post_polish": 0.0, "seam_gap": 0.0}
        assert result["iterations"] == 2 and result["update_history"] == [0.0, 0.0]

    def test_periodic_thousand_step_cycle(self, tmp_path):
        # a 1000-step cat cycle, jittered by 1e-9, under a shift of 1e-9
        p, shift = 1000, [1e-9, 0.0]
        cycle, start = cat_cycle(p, shift)
        torus = Phase("torus", 2)
        dirs = np.random.default_rng(1).standard_normal((p, 2))
        seeds = torus.canon(cycle + 1e-9 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True))
        payload = {
            "system": {"type": "cat_map"},
            "pseudo_orbit": {"seeds": seeds.tolist() + seeds[:1].tolist(), "lengths": [1] * p},
            "certification": {"lambda": 0.45},
            "perturbation": {"type": "shift", "offset": shift},
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "periodic", payload)
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert result["converged"] is True
        assert set(result["closure"]) == {"pre_polish", "post_polish", "seam_gap"}
        assert result["closure"]["post_polish"] < 1e-10
        assert np.linalg.norm(torus.wrap(np.array(result["shadow_point"]) - start)) <= 1e-10

    def test_periodic_on_perturbed_map(self, tmp_path):
        # a period-3 cat-map cycle as a closed pseudo-orbit of the perturbed
        # map: power splittings must agree at the seam
        c = 0.001
        payload = {
            "system": {"type": "perturbed_cat_map", "amplitude": c},
            "pseudo_orbit": {"seeds": [[0.75, 0.5], [0.0, 0.25], [0.25, 0.25], [0.75, 0.5]],
                             "lengths": [1, 1, 1]},
            "certification": {"lambda": 0.45, "epsilon": 1e-9, "delta": 1e-3},
            "solver": {"lambda_tilde": 0.5},
        }
        code, out = run(tmp_path, "periodic", payload)
        assert code == 0
        result = json.loads(out.read_text())["result"]
        assert result["converged"] is True
        assert result["max_distance"] <= 1e-3
        x = np.array(result["shadow_point"])
        y = x.copy()
        for _ in range(3):
            s = c / (2.0 * math.pi) * np.sin(2.0 * math.pi * y[::-1])
            y = np.array([2.0 * y[0] + y[1], y[0] + y[1]]) + s
        gap = (y - x + 0.5) % 1.0 - 0.5
        assert np.abs(gap).max() <= 1e-12

    def test_shadow_builds_blocks_once(self, tmp_path, monkeypatch):
        calls = []
        real = bishadow.certification.pseudo_orbit_blocks

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(bishadow.certification, "pseudo_orbit_blocks", counting)
        code, _ = run(tmp_path, "shadow")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("command", ["shadow", "periodic"])
    @pytest.mark.parametrize("error", [BallInvariantError, UnstableSolveError])
    def test_solver_error_is_reported(self, tmp_path, monkeypatch, command, error):
        # the preconditions pass, then the solve raises: exit 2 with the report
        def failing(*args, **kwargs):
            raise error("solver failed at index 3")

        solver = "solve_periodic" if command == "periodic" else "solve_finite"
        monkeypatch.setattr(bishadow.cli, solver, failing)
        code, out = run(tmp_path, command, guarded_payload("cat_map", command))
        assert code == 2
        report = json.loads(out.read_text())
        assert report["error"] == {"kind": "solver", "message": "solver failed at index 3"}
        assert report["certificate"]["passed"] is True
        assert "result" not in report

    def test_non_unimodular_matrix_is_config_error(self, tmp_path, capsys):
        # a singular integer matrix; any other one is a torus endomorphism
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["system"] = {"type": "torus_linear", "matrix": [[1, 1, 0], [1, 1, 0], [0, 0, 1]]}
        payload["pseudo_orbit"]["generator"]["start"] = [0.13, 0.41, 0.7]
        code, out = run(tmp_path, "shadow", payload)
        assert code == 3
        assert not out.exists()
        assert "nonzero determinant" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["certify", "shadow", "refine"])
    def test_singular_affine_matrix_is_config_error(self, tmp_path, capsys, command):
        # a singular matrix used to reach the block builder and end in a
        # traceback with exit 1, after a divide-by-zero warning
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["system"] = {"type": "affine", "matrix": [[2, 0], [0, 0]]}
        payload["refinement"] = {"lambda_tilde": 0.5}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, command, payload)
        assert code == 3
        assert not out.exists()
        assert "affine matrix must be invertible" in capsys.readouterr().err

    def test_periodic_needs_closed_pseudo_orbit(self, tmp_path, capsys):
        code, out = run(tmp_path, "periodic")
        assert code == 3
        assert not out.exists()
        assert "closing seed" in capsys.readouterr().err

    def test_grid_res_below_floor_is_config_error(self, tmp_path, capsys):
        for value in (16, 63, 64.0, True):
            payload = json.loads(json.dumps(BASE_CONFIG))
            payload["solver"]["grid_res"] = value
            code, out = run(tmp_path, "shadow", payload, name=f"grid{value}")
            assert code == 3
            assert not out.exists()
            assert "solver.grid_res" in capsys.readouterr().err

    def test_leftover_grid_res_key_is_config_error(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["solver"]["grid_res"] = 256
        code, out = run(tmp_path, "shadow", payload)
        assert code == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "unknown key" in err and "solver.grid_res" in err

    def test_shift_offset_must_match_dimension(self, tmp_path, capsys):
        # a 1-coordinate offset would broadcast over both coordinates of T^2
        # and a 3-coordinate one failed inside the solve
        for offset in ([1e-4], [1e-4, 0.0, 0.0], 1e-4):
            payload = json.loads(json.dumps(BASE_CONFIG))
            payload["perturbation"]["offset"] = offset
            code, out = run(tmp_path, "shadow", payload, name=f"offset{len(str(offset))}")
            assert code == 3
            assert not out.exists()
            assert "2 coordinates" in capsys.readouterr().err

    def test_perturbed_amplitude_needs_cat_map(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["perturbation"] = {"type": "perturbed_amplitude", "amplitude": 1e-4}
        for matrix in ([[1, 1, 0], [1, 2, 1], [0, 1, 2]], [[1, 1], [1, 2]]):
            payload["system"] = {"type": "torus_linear", "matrix": matrix}
            payload["pseudo_orbit"]["generator"]["start"] = [0.13, 0.41, 0.7][: len(matrix)]
            code, out = run(tmp_path, "shadow", payload, name=f"dim{len(matrix)}")
            assert code == 3
            assert not out.exists()
            assert "perturbed_amplitude" in capsys.readouterr().err

    def test_perturbed_cat_map_amplitude_beyond_weyl_bound(self, tmp_path, capsys):
        # sigma_2 of the cat matrix is (3 - sqrt 5) / 2 = 0.38196...
        payload = json.loads(json.dumps(BASE_CONFIG))
        for amplitude in (0.382, -0.5):
            payload["system"] = {"type": "perturbed_cat_map", "amplitude": amplitude}
            code, out = run(tmp_path, "shadow", payload, name=f"amp{amplitude}")
            assert code == 3
            assert not out.exists()
            assert "amplitude" in capsys.readouterr().err

    def test_refine_graph_transform_error(self, tmp_path, monkeypatch):
        fail_refine(monkeypatch)
        code, out = run(tmp_path, "refine")
        assert code == 1
        error = json.loads(out.read_text())["error"]
        assert error == {"kind": "graph_transform",
                         "message": "graph left the unit ball at index 4"}

    def test_refine_iteration_keys_rejected(self, tmp_path):
        for key, value in (("fp_tol", 1e-12), ("max_iter", 100)):
            payload = json.loads(json.dumps(BASE_CONFIG))
            payload["refinement"] = {key: value}
            code, _ = run(tmp_path, "refine", payload, name=key)
            assert code == 3

    def test_refine_ok(self, tmp_path):
        code, out = run(tmp_path, "refine", REFINE_PAYLOAD)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["refinement"]["is_quasi_hyperbolic"] is True
        assert "unstable_sweeps" not in report["refinement"]
        assert "max_invariance_residual" not in report["refinement"]

    def test_refine_not_invariant_fails(self, tmp_path):
        # the power input's own off-diagonal (1.17e-15) and the graph
        # transform's rounding both lie above offdiag_tol, so the transform
        # runs; its offdiag rows pass within PASS_TOL, but their largest
        # entry is above offdiag_tol: the splitting is not invariant there
        payload = {
            "system": {"type": "perturbed_cat_map", "amplitude": 0.02},
            "pseudo_orbit": {
                "generator": {"start": [0.13, 0.41], "lengths": [4] * 50,
                              "jump_amp": 1e-5, "rng_seed": 3}
            },
            "certification": {"lambda": 0.45, "epsilon": 1e-9, "delta": 1e-5},
            "splitting": {"strategy": "power"},
            "refinement": {"offdiag_tol": 1e-16},
        }
        code, out = run(tmp_path, "refine", payload)
        report = json.loads(out.read_text())["refinement"]
        assert report["certificate"]["passed"] is True
        assert report["max_offdiagonal"] > 1e-16
        assert report["is_quasi_hyperbolic"] is False
        assert code == 1

    def test_refine_shallow_power_cycle_takes_the_transform(self, tmp_path, monkeypatch):
        # a perturbed period-5 cat cycle: one warm-up step leaves power's
        # closed-orbit splitting 2.4e-4 off invariant, and the graph
        # transform brings it to rounding
        calls = []
        real = bishadow.refinement.invariant_graphs

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bishadow.refinement, "invariant_graphs", counting)
        code, out = run(tmp_path, "refine", SHALLOW_POWER_CYCLE)
        report = json.loads(out.read_text())["refinement"]
        assert len(calls) == 1
        assert report["is_quasi_hyperbolic"] is True
        assert report["max_offdiagonal"] <= 1e-12
        assert code == 0


class TestCertifyCsv:
    def test_margin_table_schema(self, tmp_path):
        code, out = run(tmp_path, "certify", extra=("--format", "csv"))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "segment,step,condition,lhs,rhs,margin"
        assert len(lines) > 10

    @pytest.mark.parametrize("lam", [0.4, 0.3])
    def test_matches_row_by_row_table(self, tmp_path, monkeypatch, lam):
        certs = []
        real = bishadow.cli._certify

        def recording(*args):
            certs.append(real(*args))
            return certs[-1]

        monkeypatch.setattr(bishadow.cli, "_certify", recording)
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["certification"]["lambda"] = lam
        code, out = run(tmp_path, "certify", payload, extra=("--format", "csv"))
        assert code == (0 if lam == 0.4 else 1)
        assert out.read_bytes() == margins_csv_rows(certs[0]).encode()


    def test_long_table_matches_row_by_row_table(self, tmp_path, monkeypatch):
        """Over 10^4 rows, written a slice at a time: the same bytes."""
        certs = []
        real = bishadow.cli._certify

        def recording(*args):
            certs.append(real(*args))
            return certs[-1]

        monkeypatch.setattr(bishadow.cli, "_certify", recording)
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["pseudo_orbit"]["generator"]["lengths"] = [4] * 625
        code, out = run(tmp_path, "certify", payload, extra=("--format", "csv"))
        assert code == 0 and len(certs[0].margin) > 2 * SLICE
        assert out.read_bytes() == margins_csv_rows(certs[0]).encode()


class TestJsonReports:
    @pytest.mark.parametrize("command", ["certify", "shadow", "refine"])
    def test_long_report_matches_json_dumps(self, tmp_path, monkeypatch, command):
        """A 1000-step cat-map report, whose margin columns (certify, refine)
        repeat few values and whose result arrays (shadow) have 1001 rows:
        the same bytes as the standard library's encoder."""
        reports = []
        real = bishadow.cli._report_json

        def recording(report, out):
            reports.append(report)
            real(report, out)

        monkeypatch.setattr(bishadow.cli, "_report_json", recording)
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["pseudo_orbit"]["generator"]["lengths"] = [4] * 250
        code, out = run(tmp_path, command, payload)
        data = out.read_bytes()
        if command == "shadow":
            assert code == 0 and len(json.loads(data)["result"]["distances"]) == 1001
        else:
            assert code == 0 and data.count(b'"margin": ') >= 4250
        assert data == (json.dumps(plain(reports[0]), sort_keys=True, indent=2) + "\n").encode()


PERTURBED_SHADOW = {
    "system": {"type": "perturbed_cat_map", "amplitude": 0.02},
    "pseudo_orbit": {
        "generator": {"start": [0.3, 0.7], "lengths": [4] * 125,
                      "jump_amp": 1e-5, "rng_seed": 5}
    },
    "certification": {"lambda": 0.45, "epsilon": 1e-9, "delta": 1e-5},
    "splitting": {"strategy": "power"},
    "solver": {"lambda_tilde": 0.5},
    "perturbation": {"type": "perturbed_amplitude", "amplitude": 0.0201},
}


def _long_cat_shadow():
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["pseudo_orbit"]["generator"]["lengths"] = [4] * 250
    return payload


class TestCertificateSummary:
    @pytest.mark.parametrize("payload", [_long_cat_shadow(), PERTURBED_SHADOW],
                             ids=["cat", "perturbed"])
    def test_summary_describes_certify_at_its_epsilon_and_delta(self, tmp_path, payload):
        """certify, with certification.epsilon and delta set to the shadow
        report's, writes the table that the report summarises."""
        code, out = run(tmp_path, "shadow", payload, name="shadow")
        assert code == 0
        summary = json.loads(out.read_text())["certificate"]
        assert "margins" not in summary
        again = json.loads(json.dumps(payload))
        again["certification"].update(epsilon=summary["epsilon"], delta=summary["delta"])
        code, out = run(tmp_path, "certify", again, name="certify")
        assert code == 0
        report = json.loads(out.read_text())
        table = report["certificate"].pop("margins")
        counts = {}
        for row in table:
            counts[row["condition"]] = counts.get(row["condition"], 0) + 1
        assert summary == dict(report["certificate"], rows=counts, binding=report["binding"],
                               within_tolerance=sum(-PASS_TOL <= r["margin"] < 0 for r in table))
        # the certificate at the config's own epsilon and delta is another table
        assert summary["epsilon"] != payload["certification"]["epsilon"]

    def test_periodic_report_summarises_too(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["pseudo_orbit"] = {"seeds": [[0.0, 0.0], [0.0, 0.0]], "lengths": [1]}
        code, out = run(tmp_path, "periodic", payload)
        cert = json.loads(out.read_text())["certificate"]
        assert code == 0 and "margins" not in cert
        assert cert["rows"] == {"contraction_product": 1, "expansion_product": 1, "ratio": 1,
                                "offdiag": 1, "residual": 1}

    def test_ten_thousand_step_shadow_report_stays_small(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["pseudo_orbit"]["generator"]["lengths"] = [4] * 2500
        code, out = run(tmp_path, "shadow", payload)
        assert code == 0
        assert out.stat().st_size <= 400_000
        assert len(json.loads(out.read_text())["result"]["distances"]) == 10_001


class TestSweep:
    def test_deterministic_bytes(self, tmp_path):
        _, out1 = run(tmp_path, "sweep", name="a")
        _, out2 = run(tmp_path, "sweep", name="b")
        assert out1.read_bytes() == out2.read_bytes()

    def test_monotone_distance_in_delta(self, tmp_path):
        code, out = run(tmp_path, "sweep")
        assert code == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "axis_value,certified,converged,max_shadow_distance,iterations"
        dists = [float(r.split(",")[3]) for r in rows[1:]]
        assert dists == sorted(dists)

    def test_parallel_matches_serial(self, tmp_path):
        _, serial = run(tmp_path, "sweep", extra=("--jobs", "1"), name="s")
        _, par = run(tmp_path, "sweep", extra=("--jobs", "3"), name="p")
        assert serial.read_bytes() == par.read_bytes()

    def test_jobs_below_one_rejected(self, tmp_path):
        for jobs in ("0", "-1"):
            code, out = run(tmp_path, "sweep", extra=("--jobs", jobs), name=f"jobs{jobs}")
            assert code == 3
            assert not out.exists()

    def test_jobs_capped_at_cells(self, tmp_path, monkeypatch):
        # a fake pool records its size and maps serially, so no process starts
        sizes = []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        # cmd_sweep imports the pool from concurrent.futures only when it runs one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        code, out = run(tmp_path, "sweep", extra=("--jobs", str(10**6)), name="many")
        _, serial = run(tmp_path, "sweep", extra=("--jobs", "1"), name="serial")
        assert code == 0
        assert sizes == [len(BASE_CONFIG["sweep"]["values"])]
        assert out.read_bytes() == serial.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        _, a = run(tmp_path, "sweep", extra=("--seed", "1"), name="s1")
        _, b = run(tmp_path, "sweep", extra=("--seed", "2"), name="s2")
        assert a.read_bytes() != b.read_bytes()

    def test_timing_column_optional(self, tmp_path):
        _, out = run(tmp_path, "sweep", extra=("--timing",))
        assert out.read_text().splitlines()[0].endswith(",wall_ms")

    def test_parallel_timing_measures_each_cell(self, tmp_path):
        _, out = run(tmp_path, "sweep", extra=("--jobs", "2", "--timing"))
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(float(r.split(",")[-1]) >= 1.0 for r in rows)

    def test_failed_cell_is_reported(self, tmp_path, capsys):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"] = {"axis": "delta", "values": [1e-4, 0.2]}
        code, out = run(tmp_path, "sweep", payload)
        assert code == 1
        rows = out.read_text().splitlines()
        assert rows[0] == "axis_value,certified,converged,max_shadow_distance,iterations"
        assert rows[1].startswith("0.0001,True,True,")
        # jumps of 0.2 exceed delta0: the cell fails its preconditions and is not solved
        assert rows[2] == "0.2,False,False,nan,0"
        err = capsys.readouterr().err
        assert "delta=0.2 failed: precondition: " in err
        assert "delta=0.0001" not in err

    @pytest.mark.parametrize("axis, values, failing", [
        ("d", [1e-6, 1e-4, 5e-3], [False, False, True]),  # d0 is about 7e-4
        ("lambda", [0.3, 0.4, 0.45], [True, False, False]),  # 0.3 does not certify
    ])
    def test_rows_are_shadow_runs(self, tmp_path, capsys, axis, values, failing):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"] = {"axis": axis, "values": values}
        code, out = run(tmp_path, "sweep", payload, extra=("--jobs", "1"))
        assert code == 1
        rows = out.read_text().splitlines()[1:]
        err = capsys.readouterr().err
        unsolved = {"converged": False, "max_distance": math.nan, "iterations": 0}
        for value, row, fails in zip(values, rows, failing):
            cell = json.loads(json.dumps(BASE_CONFIG))
            if axis == "d":
                cell["perturbation"]["offset"] = [value, 0.0]
            else:
                cell["certification"]["lambda"] = value
            shadow_code, shadow_out = run(tmp_path, "shadow", cell, name=f"cell{value}")
            assert (shadow_code != 0) == fails == (f"{axis}={value!r} failed" in err)
            report = json.loads(shadow_out.read_text())
            certified = (report["certificate"]["passed"]
                         and min(report["precondition_margins"].values()) >= 0)
            r = report.get("result", unsolved)
            assert row == (f"{value!r},{certified},{r['converged']},{r['max_distance']!r},"
                           f"{r['iterations']}")

    def test_cell_outside_preconditions_is_not_solved(self, tmp_path, capsys, monkeypatch):
        # jumps of 2e-4 exceed delta0 on this map, so the cell is not solved
        solved = []
        real = bishadow.cli._solve

        def recording(problems, boundary):
            solved.extend(float(p.po.residuals.max()) for p in problems)
            return real(problems, boundary)

        monkeypatch.setattr(bishadow.cli, "_solve", recording)
        payload = guarded_payload("perturbed_cat_map", "sweep")
        payload["sweep"]["values"] = [1e-5, 2e-4]
        code, out = run(tmp_path, "sweep", payload, extra=("--jobs", "1"))
        assert code == 1
        rows = out.read_text().splitlines()
        assert rows[1].startswith("1e-05,True,True,")
        assert rows[2] == "0.0002,False,False,nan,0"
        assert solved == [pytest.approx(1e-5)]
        err = capsys.readouterr().err
        assert "delta=0.0002 failed: precondition: " in err
        assert "delta=1e-05" not in err

    def test_solver_error_fails_the_cell(self, tmp_path, capsys, monkeypatch):
        def failing(problems, boundary):
            return [BallInvariantError("iterate left the eta-ball at index 2") for _ in problems]

        monkeypatch.setattr(bishadow.cli, "_solve", failing)
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"]["values"] = [1e-4]
        code, out = run(tmp_path, "sweep", payload, extra=("--jobs", "1"))
        assert code == 1
        assert out.read_text().splitlines()[1] == "0.0001,True,False,nan,0"
        assert capsys.readouterr().err == (
            "sweep cell delta=0.0001 failed: solver: iterate left the eta-ball at index 2\n")

    def test_unconverged_cell_fails(self, tmp_path, capsys):
        # below rounding no quasi-Newton step shrinks by lambda_tilde: with
        # tol_fix = 1e-300 the plain loop starts from zero and runs out
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["solver"].update(max_iter=2, tol_fix=1e-300)
        payload["sweep"]["values"] = [1e-4]
        code, out = run(tmp_path, "sweep", payload, extra=("--jobs", "1"))
        assert code == 1
        row = out.read_text().splitlines()[1]
        assert row.startswith("0.0001,True,False,") and row.endswith(",2")
        assert capsys.readouterr().err == (
            "sweep cell delta=0.0001 failed: did not converge in 2 iterations\n")

    def test_config_error_fails_the_cell(self, tmp_path, capsys):
        # jumps of 0.6 exceed the injectivity radius of the torus
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"]["values"] = [1e-4, 0.6]
        code, out = run(tmp_path, "sweep", payload, extra=("--jobs", "1"))
        assert code == 1
        rows = out.read_text().splitlines()
        assert rows[1].startswith("0.0001,True,True,")
        assert rows[2] == "0.6,False,False,nan,0"
        err = capsys.readouterr().err
        assert "delta=0.6 failed: config: cannot build pseudo-orbit" in err
        assert "delta=0.0001" not in err

    def test_d_sweep_builds_the_shared_inputs_once(self, tmp_path, monkeypatch):
        calls = []
        for module, name in ((bishadow.config, "assign_splittings"),
                             (bishadow.certification, "pseudo_orbit_blocks"),
                             (bishadow.certification.Certificate, "binding")):  # the summary
            def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"] = {"axis": "d", "values": [1e-6, 3e-6, 1e-5, 3e-5, 1e-4]}
        code, out = run(tmp_path, "sweep", payload, extra=("--jobs", "1"))
        assert code == 0
        assert len(out.read_text().splitlines()) == 6
        assert sorted(calls) == ["assign_splittings", "binding", "pseudo_orbit_blocks"]

    @pytest.mark.parametrize("axis, values, config_error, solver_error", [
        # d0 is about 7e-4; the shift perturbation cannot be built at 2e-5
        ("d", [1e-6, 2e-5, 1e-4, 3e-4, 5e-3], 2e-5, 3e-4),
        # 0.3 does not certify; lambda_tilde = 0.5 lies outside (0.7, 0.85)
        ("lambda", [0.3, 0.4, 0.42, 0.45, 0.7], None, 0.42),
        # jumps of 0.2 exceed delta0, and jumps of 0.6 the injectivity radius
        ("delta", [1e-5, 5e-5, 1e-4, 0.2, 0.6], None, 5e-5),
    ])
    def test_every_axis_gives_the_shadow_runs(self, tmp_path, capsys, monkeypatch, axis, values,
                                              config_error, solver_error):
        """Each cell's row and stderr line are those of shadow on its config,
        with a precondition failure, a config error and a solver error mixed
        in; the cells share their builds and are solved as one stack."""
        real_shift = bishadow.config.ShiftedMap

        def shift(f, offset):
            if offset[0] == config_error:
                raise ValueError("no shift here")
            return real_shift(f, offset)

        real_init = ShadowProblem.__init__

        def init(self, po, splittings, f, g, config, blocks=None):
            # the solver-error cell gets an eta-ball too small for its first update
            value = {"d": getattr(g, "shift", [None])[0], "lambda": config.lam,
                     "delta": float(po.residuals.max())}[axis]
            if value == pytest.approx(solver_error, rel=1e-9):
                config = dataclasses.replace(config, eta=1e-12)
            real_init(self, po, splittings, f, g, config, blocks)

        monkeypatch.setattr(bishadow.config, "ShiftedMap", shift)
        monkeypatch.setattr(ShadowProblem, "__init__", init)
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"] = {"axis": axis, "values": values}
        code, out = run(tmp_path, "sweep", payload, extra=("--jobs", "1"))
        rows, err = out.read_text().splitlines()[1:], capsys.readouterr().err
        assert code == 1
        expected_err = []
        unsolved = {"converged": False, "max_distance": math.nan, "iterations": 0}
        for value, row in zip(values, rows):
            cell = json.loads(json.dumps(BASE_CONFIG))
            if axis == "d":
                cell["perturbation"]["offset"] = [value, 0.0]
            elif axis == "lambda":
                cell["certification"]["lambda"] = value
            else:
                cell["pseudo_orbit"]["generator"]["jump_amp"] = value
            shadow_code, shadow_out = run(tmp_path, "shadow", cell, name=f"cell{value}")
            shadow_err = capsys.readouterr().err
            report = json.loads(shadow_out.read_text()) if shadow_out.exists() else {}
            r = report.get("result", unsolved)
            certified = shadow_code in (0, 2)
            assert row == (f"{value!r},{certified},{r['converged']},{r['max_distance']!r},"
                           f"{r['iterations']}")
            if shadow_code == 3:
                failure = "config: " + shadow_err.removeprefix("config error: ").rstrip("\n")
            elif "error" in report:
                failure = "{kind}: {message}".format(**report["error"])
            elif shadow_code:
                failure = f"did not converge in {r['iterations']} iterations"
            else:
                continue
            expected_err.append(f"sweep cell {axis}={value!r} failed: {failure}\n")
        assert err == "".join(expected_err)
        kinds = [line.split("failed: ")[1].split(":")[0] for line in expected_err]
        assert sorted(kinds) == ["config", "precondition", "solver"]

    def test_epsilon_axis_rejected(self, tmp_path, capsys):
        # shadow never reads certification.epsilon, so the axis changed nothing
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["sweep"] = {"axis": "epsilon", "values": [0.0, 1e-3]}
        code, out = run(tmp_path, "sweep", payload)
        assert code == 3
        assert not out.exists()
        assert "unknown sweep axis 'epsilon'" in capsys.readouterr().err

    def test_genuine_orbit_cells_all_zero(self, tmp_path):
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["pseudo_orbit"]["generator"]["jump_amp"] = 0.0
        payload["perturbation"] = {"type": "none"}
        payload["solver"] = {}  # per-cell default lambda_tilde tracks lambda
        payload["sweep"] = {"axis": "lambda", "values": [0.4, 0.5, 0.62]}
        code, out = run(tmp_path, "sweep", payload)
        assert code == 0
        for row in out.read_text().splitlines()[1:]:
            assert float(row.split(",")[3]) == 0.0


GUARDED_SYSTEMS = ("cat_map", "perturbed_cat_map", "shifted_torus3", "shifted_torus4", "affine")


def guarded_payload(system: str, command: str) -> dict:
    """BASE_CONFIG moved onto one of the guarded systems; a closed
    pseudo-orbit at the fixed point 0 for periodic."""
    payload = json.loads(json.dumps(BASE_CONFIG))
    gen = payload["pseudo_orbit"]["generator"]
    dim = 2
    if system == "perturbed_cat_map":
        payload["system"] = {"type": "perturbed_cat_map", "amplitude": 0.02}
        payload["certification"].update({"lambda": 0.45, "epsilon": 1e-9})
        payload["perturbation"] = {"type": "perturbed_amplitude", "amplitude": 0.0201}
        payload["sweep"]["values"] = [1e-5, 1e-4]  # within delta0; 2e-4 is not
    elif system == "shifted_torus3":
        dim = 3
        payload["system"] = {"type": "torus_linear", "matrix": [[1, 1, 0], [1, 2, 1], [0, 1, 2]]}
        gen["jump_amp"] = 1e-6
        payload["certification"].update({"lambda": 0.7, "delta": 1e-6})
        payload["solver"] = {"lambda_tilde": 0.8}
        payload["perturbation"]["offset"] = [1e-6, 0.0, 0.0]
        payload["sweep"]["values"] = [1e-7, 1e-6]
    elif system == "shifted_torus4":
        dim = 4
        payload["system"] = {"type": "torus_linear", "matrix": [
            [2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]}
        payload["perturbation"]["offset"] = [1e-4, 0.0, 0.0, 0.0]
    elif system == "affine":
        payload["system"] = {"type": "affine", "matrix": [[2.0, 0.0], [0.0, 0.5]]}
        payload["certification"]["lambda"] = 0.55
        payload["solver"] = {"lambda_tilde": 0.7}
    gen["start"] = [0.13, 0.41, 0.7, 0.2][:dim]
    if command == "periodic":
        payload["pseudo_orbit"] = {"seeds": [[0.0] * dim] * 2, "lengths": [1]}
        payload["certification"]["delta"] = 0.0
    return payload


@pytest.mark.parametrize("command", ["certify", "refine", "shadow", "periodic", "sweep"])
@pytest.mark.parametrize("system", GUARDED_SYSTEMS)
def test_no_subcommand_samples_a_grid(tmp_path, monkeypatch, system, command):
    """Every constant a subcommand needs is analytic on the shipped systems:
    no run samples a grid, and every reported constant is exact or a bound."""
    def no_grid(self, res):
        raise AssertionError("a subcommand sampled a grid")

    monkeypatch.setattr(Phase, "grid", no_grid)
    extra = ("--jobs", "1") if command == "sweep" else ()
    code, out = run(tmp_path, command, guarded_payload(system, command), extra=extra)
    assert code == 0
    if command in ("shadow", "periodic"):
        constants = json.loads(out.read_text())["constants"]
        assert sorted(constants) == ["L", "R", "map_distance"]
        linear = system != "perturbed_cat_map"
        assert constants["R"]["kind"] == constants["L"]["kind"] == ("exact" if linear else "bound")
        assert constants["map_distance"]["kind"] == "exact"
    elif command == "refine":
        kind = json.loads(out.read_text())["refinement"]["eps_cap_kind"]
        assert kind == ("bound" if system == "perturbed_cat_map" else "exact")


def mutation_base(command: str) -> dict:
    """BASE_CONFIG on a short orbit, with the blocks ``command`` reads."""
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["pseudo_orbit"]["generator"]["lengths"] = [2, 2]
    payload["sweep"]["values"] = [1e-5, 1e-4]
    if command == "refine":
        payload["refinement"] = {"lambda_tilde": 0.5, "lambda0": 0.45, "offdiag_tol": 1e-8}
        payload["splitting"] = {"strategy": "eigen", "dim_u": 1}
    if command == "periodic":
        payload["pseudo_orbit"] = {"seeds": [[0.0, 0.0], [0.0, 0.0]], "lengths": [1]}
        payload["certification"]["delta"] = 0.0
    if command == "shadow":
        payload["solver"].update(epsilon1=0.1, eta=0.05, tol_fix=1e-12, max_iter=200)
    return payload


def mutation_paths(node, path=()):
    """Every key or list index below node, as a path of keys."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from mutation_paths(child, path + (key,))


# "drop" removes a dict key; every other value replaces a leaf.  NaN and
# Infinity are JSON literals Python reads; 10**400 is beyond float range.
MUTATIONS = ("drop", "x", True, 0, -1, -0.5, 1e300, [], [0.5, 1],
             math.nan, math.inf, 10**400)


def mutate(payload: dict, path: tuple, mutation):
    """payload with one mutation at path; None where it does not apply."""
    payload = json.loads(json.dumps(payload))
    *parents, last = path
    node = payload
    for key in parents:
        node = node[key]
    if mutation == "drop":
        if not isinstance(node, dict):
            return None
        del node[last]
    elif isinstance(node[last], (dict, list)):
        return None
    else:
        node[last] = mutation
    return payload


MUTATION_CASES = [(command, path)
                  for command in ("certify", "refine", "shadow", "periodic", "sweep")
                  for path in mutation_paths(mutation_base(command))]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # NaN inputs
def test_mutated_config_fails_cleanly(tmp_path, capsys):
    """Every mutated valid config ends with an exit code and a report or a
    stderr line, never with an uncaught exception."""
    out = tmp_path / "mutated.txt"
    for (command, path), mutation in itertools.product(MUTATION_CASES, MUTATIONS):
        payload = mutate(mutation_base(command), path, mutation)
        if payload is None:
            continue
        out.unlink(missing_ok=True)
        extra = ("--jobs", "1") if command == "sweep" else ()
        code = main([command, "--config", write_config(tmp_path, payload, "mutated.json"),
                     "--out", str(out), *extra])
        err = capsys.readouterr().err
        case = (command, path, mutation)
        assert code in (0, 1, 2, 3), case
        assert out.exists() or err.strip(), case
        if code == 3:
            assert err.startswith("config error: "), case


def edited(changes: dict) -> dict:
    """BASE_CONFIG with each dotted path set to its value, or dropped for None."""
    payload = json.loads(json.dumps(BASE_CONFIG))
    for dotted, value in changes.items():
        *parents, key = dotted.split(".")
        node = payload
        for name in parents:
            node = node.setdefault(name, {})
        if value is None:
            del node[key]
        else:
            node[key] = value
    return payload


@pytest.mark.parametrize("command, changes, message", [
    ("certify", {"system": "cat_map"}, "system must be an object"),
    ("certify", {"solver.grid_res": 256}, "unknown key(s) ['solver.grid_res']"),
    ("certify", {"certification.lambda": None}, "missing key(s) ['lambda'] in certification"),
    ("certify", {"system.type": "cat"}, "unknown system type 'cat'"),
    ("shadow", {"perturbation.type": "scale"}, "unknown perturbation type 'scale'"),
    ("sweep", {"sweep.axis": "epsilon"}, "unknown sweep axis 'epsilon'"),
    ("refine", {"splitting.strategy": "user"}, "unknown splitting strategy 'user'"),
    ("certify", {"certification.lambda": 1.5}, "certification.lambda must be in (0, 1)"),
    ("certify", {"pseudo_orbit.generator.lengths": [3, 0]},
     "pseudo_orbit.generator.lengths must be a nonempty list of positive integers"),
    ("certify", {"pseudo_orbit.seeds": [[0.0, 0.0], [0.0, 0.0]]},
     "pseudo_orbit needs exactly one of 'seeds' or 'generator'"),
    ("certify", {"pseudo_orbit": {"seeds": [[0.0, 0.0], [0.0, 0.0]]}},
     "pseudo_orbit with seeds needs lengths"),
    ("sweep", {"sweep.values": [1e-4, 1e-5]}, "sweep.values must be sorted ascending"),
    ("shadow", {"solver.lambda_tilde": 0.9},
     "solver: lambda_tilde must lie in (lambda, (1 + lambda) / 2)"),
    ("refine", {"refinement.lambda_tilde": 0.2}, "refinement: need 0 < lam < lam_tilde < 1"),
    ("certify", {"system": {"type": "torus_linear", "matrix": [[1, 1], [1, 1]]}},
     "cannot build system: matrix must have a nonzero determinant"),
    ("certify", {"sweep": 0}, "sweep must be an object"),
])
def test_config_error_text(tmp_path, capsys, command, changes, message):
    code, out = run(tmp_path, command, edited(changes))
    assert code == 3
    assert not out.exists()
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command, block, key, value", [
    ("shadow", "solver", "lambda_tilde", 0.9),
    ("shadow", "solver", "eta", "abc"),
    ("shadow", "solver", "epsilon1", "x"),
    ("shadow", "solver", "tol_fix", "x"),
    ("shadow", "solver", "max_iter", "x"),
    ("refine", "refinement", "lambda_tilde", 0.2),
    ("refine", "refinement", "lambda0", 0.99),
    ("refine", "refinement", "offdiag_tol", "x"),
    ("shadow", "perturbation", "amplitude", "x"),
])
def test_bad_solver_value_is_config_error(tmp_path, capsys, command, block, key, value):
    payload = json.loads(json.dumps(BASE_CONFIG))
    if block == "perturbation":
        payload["perturbation"] = {"type": "perturbed_amplitude"}
    payload.setdefault(block, {})[key] = value
    code, out = run(tmp_path, command, payload)
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {block}")


def test_whole_period_shift_adds_nothing(tmp_path):
    # a shift by 1e300 is a whole number of periods on T^2; added in floating
    # point it rounded f's value away and the solve raised
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["perturbation"]["offset"] = [1e300, 0.0]
    code, out = run(tmp_path, "shadow", payload)
    assert code == 0
    assert json.loads(out.read_text())["constants"]["map_distance"]["value"] == 0.0


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_nan_shift_fails_preconditions(tmp_path):
    # a NaN margin compared false with 0, so the solve ran and raised
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["perturbation"]["offset"] = [math.nan, 0.0]
    code, out = run(tmp_path, "shadow", payload)
    assert code == 1
    assert json.loads(out.read_text())["error"]["kind"] == "precondition"


JSON_REPORTS = pytest.mark.parametrize("command, payload, graph_error, expected", [
    ("certify", BASE_CONFIG, False, 0),
    ("refine", REFINE_PAYLOAD, False, 0),
    ("refine", BASE_CONFIG, True, 1),
    ("shadow", BASE_CONFIG, False, 0),
    ("shadow", _precondition_failure(), False, 1),
    ("periodic", guarded_payload("cat_map", "periodic"), False, 0),
], ids=["certify", "refine", "refine-error", "shadow", "precondition-failure", "periodic"])


def fail_refine(monkeypatch):
    def failing(*args, **kwargs):
        raise GraphTransformError("graph left the unit ball at index 4")

    monkeypatch.setattr(bishadow.cli, "refine", failing)


@JSON_REPORTS
def test_report_is_reference_json(tmp_path, monkeypatch, command, payload, graph_error, expected):
    """Each report is json.dumps(plain(report), sort_keys=True, indent=2) and a newline."""
    reports = []
    real = bishadow.cli._report_json

    def recording(report, out):
        reports.append(report)
        real(report, out)

    monkeypatch.setattr(bishadow.cli, "_report_json", recording)
    if graph_error:
        fail_refine(monkeypatch)
    code, out = run(tmp_path, command, payload)
    assert code == expected
    [report] = reports
    assert out.read_bytes() == (json.dumps(plain(report), sort_keys=True, indent=2) + "\n").encode()


def test_long_certificate_reaches_out_a_slice_at_a_time(tmp_path, monkeypatch):
    """A certificate of over 10^4 rows is written in pieces of at most SLICE
    rows, so the whole text is never held."""
    pieces = []
    real = bishadow.cli._report_json

    def recording(report, out):
        def keep(piece):
            pieces.append(piece)
            out(piece)

        real(report, keep)

    monkeypatch.setattr(bishadow.cli, "_report_json", recording)
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload["pseudo_orbit"]["generator"]["lengths"] = [4] * 625
    code, out = run(tmp_path, "certify", payload)
    assert code == 0
    rows = len(json.loads(out.read_text())["certificate"]["margins"])
    assert rows == 4 * 2500 + 625
    per_piece = [p.count('"condition": ') for p in pieces]  # the binding row adds one
    assert max(per_piece) <= min(SLICE, rows // 2) and sum(per_piece) == rows + 1
    assert "".join(pieces).encode() == out.read_bytes()


@pytest.mark.parametrize("where", ["missing/dir/x.json", "."])
def test_unwritable_out_is_a_usage_error(tmp_path, capsys, where):
    target = tmp_path / where
    code = main(["certify", "--config", write_config(tmp_path, BASE_CONFIG), "--out", str(target)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith(f"cannot write report {target}: ") and err.count("\n") == 1


def test_failing_stdout_is_a_usage_error(tmp_path, capsys, monkeypatch):
    class Full:
        def write(self, text):
            raise OSError(28, "No space left on device")

    cfg = write_config(tmp_path, BASE_CONFIG)
    monkeypatch.setattr("sys.stdout", Full())
    assert main(["certify", "--config", cfg]) == 3
    assert capsys.readouterr().err == "cannot write report <stdout>: No space left on device\n"


@JSON_REPORTS
def test_timing_adds_only_wall_time(tmp_path, monkeypatch, command, payload, graph_error, expected):
    """--timing adds timing.wall_s to every JSON report, failed ones too, and nothing else."""
    if graph_error:
        fail_refine(monkeypatch)
    code, plain = run(tmp_path, command, payload, name="plain")
    timed_code, timed = run(tmp_path, command, payload, extra=("--timing",), name="timed")
    assert code == timed_code == expected
    report = json.loads(timed.read_text())
    timing = report.pop("timing")
    assert list(timing) == ["wall_s"] and timing["wall_s"] > 0
    assert (json.dumps(report, sort_keys=True, indent=2) + "\n").encode() == plain.read_bytes()


def test_timing_leaves_the_margin_csv_alone(tmp_path):
    _, plain = run(tmp_path, "certify", extra=("--format", "csv"), name="plain")
    _, timed = run(tmp_path, "certify", extra=("--format", "csv", "--timing"), name="timed")
    assert timed.read_bytes() == plain.read_bytes()
