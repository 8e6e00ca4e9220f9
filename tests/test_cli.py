import json
import math

import numpy as np

import bishadow.certification
import bishadow.cli
import bishadow.shadowing
from bishadow.cli import main
from bishadow.config import parse_config
from bishadow.refinement import GraphTransformError
from bishadow.systems import Phase

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
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["pseudo_orbit"]["generator"]["jump_amp"] = 5e-3
        payload["certification"]["delta"] = 5e-3
        code, out = run(tmp_path, "shadow", payload)
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
        report = json.loads(out.read_text())
        assert "closure" in report["result"]
        assert report["result"]["closure"]["pre_polish"] <= 1e-10

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

    def test_shadow_samples_map_distance_on_configured_grid(self, tmp_path, monkeypatch):
        grids = []
        real = bishadow.shadowing.sup_distance

        def recording(f, g, grid_res=256):
            grids.append(grid_res)
            return real(f, g, grid_res=grid_res)

        monkeypatch.setattr(bishadow.shadowing, "sup_distance", recording)
        payload = json.loads(json.dumps(BASE_CONFIG))
        payload["solver"]["grid_res"] = 64
        for command in ("shadow", "periodic"):
            if command == "periodic":
                payload["pseudo_orbit"] = {"seeds": [[0.0, 0.0], [0.0, 0.0]], "lengths": [1]}
                payload["certification"]["delta"] = 0.0
            code, _ = run(tmp_path, command, payload, name=command)
            assert code == 0
        assert grids == [64, 64]

    def test_refine_samples_bounds_on_configured_grid(self, tmp_path, monkeypatch):
        grids = []
        real = bishadow.cli.estimate_bounds

        def recording(f, grid_res=256, **kwargs):
            grids.append(grid_res)
            return real(f, grid_res=grid_res, **kwargs)

        monkeypatch.setattr(bishadow.cli, "estimate_bounds", recording)
        payload = {
            "system": {"type": "perturbed_cat_map", "amplitude": 0.005},
            "pseudo_orbit": {"generator": {"start": [0.3, 0.7], "lengths": [3, 3, 3],
                                           "jump_amp": 1e-5, "rng_seed": 7}},
            "certification": {"lambda": 0.4},
            "refinement": {"lambda_tilde": 0.5},
            "splitting": {"strategy": "power", "depth": 1},
            "solver": {"grid_res": 64},
        }
        code, _ = run(tmp_path, "refine", payload)
        assert code == 0
        assert grids == [64]

    def test_grid_res_above_grid_cap_is_config_error(self, tmp_path, monkeypatch, capsys):
        def no_grid(self, res):
            raise AssertionError("a config check must not sample a grid")

        monkeypatch.setattr(Phase, "grid", no_grid)
        torus3 = {"type": "torus_linear", "matrix": [[2, 1, 0], [1, 1, 0], [0, 0, 1]]}
        affine = {"type": "affine", "matrix": [[2.0, 0.0], [0.0, 0.5]]}
        payload = json.loads(json.dumps(BASE_CONFIG))
        # 2048^2 and 161^3 points stay within Phase.grid's 2^22; 2049^2 and 162^3 do not
        for system, res in (({"type": "cat_map"}, 2049), ({"type": "cat_map"}, 4096),
                            ({"type": "perturbed_cat_map", "amplitude": 0.01}, 4096),
                            (torus3, 162), (torus3, 256)):
            payload["system"], payload["solver"]["grid_res"] = system, res
            code, out = run(tmp_path, "shadow", payload, name=f"{system['type']}{res}")
            assert code == 3
            assert not out.exists()
            assert "solver.grid_res" in capsys.readouterr().err
        for system, res in (({"type": "cat_map"}, 2048), (torus3, 161), (affine, 4096)):
            payload["system"], payload["solver"]["grid_res"] = system, res
            parse_config(payload)

    def test_grid_res_below_floor_is_config_error(self, tmp_path, capsys):
        for value in (16, 63, 64.0, True):
            payload = json.loads(json.dumps(BASE_CONFIG))
            payload["solver"]["grid_res"] = value
            code, out = run(tmp_path, "shadow", payload, name=f"grid{value}")
            assert code == 3
            assert not out.exists()
            assert "solver.grid_res" in capsys.readouterr().err

    def test_refine_graph_transform_error(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise GraphTransformError("graph left the unit ball at index 4")

        monkeypatch.setattr(bishadow.cli, "refine", failing)
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
        payload = {
            "system": {"type": "perturbed_cat_map", "amplitude": 0.005},
            "pseudo_orbit": {
                "generator": {"start": [0.3, 0.7], "lengths": [3, 3, 3],
                              "jump_amp": 1e-5, "rng_seed": 7}
            },
            "certification": {"lambda": 0.4},
            "refinement": {"lambda_tilde": 0.5},
            "splitting": {"strategy": "power"},
        }
        code, out = run(tmp_path, "refine", payload)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["refinement"]["is_quasi_hyperbolic"] is True
        assert "unstable_sweeps" not in report["refinement"]


class TestCertifyCsv:
    def test_margin_table_schema(self, tmp_path):
        code, out = run(tmp_path, "certify", extra=("--format", "csv"))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "segment,step,condition,lhs,rhs,margin"
        assert len(lines) > 10


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
        # the cell certifies at (0.4, 0, 0.2); only its solve fails
        assert rows[2] == "0.2,True,False,nan,0"
        err = capsys.readouterr().err
        assert "delta=0.2 failed: BallInvariantError" in err
        assert "delta=0.0001" not in err

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
