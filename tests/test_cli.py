"""End-to-end CLI checks: exit codes, table contents, artifacts, overrides.

Everything drives ``cli.main`` in-process with temp config files, asserting on
captured stdout/stderr rather than subprocess plumbing.
"""

import argparse
import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from holoseq import cli
from holoseq import series as ser
from holoseq.cli import main
from holoseq.models import UnitIntervalModel

BASE = {
    "model": {"preset": "bm"},
    "function": {"family": "polynomial", "coefficients": [0.0, 0.0, 1.0]},
    "run": {"mode": "holomorphic", "T": 1.0, "x0": 0.0},
    "numerics": {"order": 8},
}


# E[exp X_T] on the unit interval, the one case the dual-chain oracle covers
UNIT_INTERVAL = {
    "model": {"preset": "unit-interval"},
    "function": {"family": "polynomial", "coefficients": [0.0, 1.0]},
    "run": {"mode": "affine", "T": 0.5, "x0": 0.5, "affine_route": "log-linear"},
    "numerics": {"order": 8},
}


# an inline dimension-two model: unit diffusion, payoff h(x) = x_1^2
DIM_TWO = {
    "model": {"dim": 2, "diffusion": [[[[[0, 0], 1.0]], None], [None, [[[0, 0], 1.0]]]]},
    "function": {"family": "series", "entries": [[[2, 0], 2.0]]},
    "run": {"mode": "holomorphic", "T": 1.0},
    "numerics": {"order": 6},
}


def _no_flow(*args, **kwargs):
    raise AssertionError("a flow ran before the config was checked")


def write_cfg(tmp_path, cfg, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListPresets:
    def test_contains_registry(self, capsys):
        code, out, _ = run_cli(capsys, "list-presets")
        assert code == 0
        for name in ("bm", "unit-interval", "two-state-affine", "finite-chain"):
            assert name in out

    def test_sorted_and_stable(self, capsys):
        _, first, _ = run_cli(capsys, "list-presets")
        _, second, _ = run_cli(capsys, "list-presets")
        assert first == second
        names = [line.split()[0] for line in first.strip().splitlines()]
        assert names == sorted(names)


class TestRun:
    def test_bm_second_moment(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "run", write_cfg(tmp_path, BASE))
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("linear-flow"))
        assert float(row.split()[2]) == pytest.approx(1.0, abs=1e-6)

    def test_header_echoes_config(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "run", write_cfg(tmp_path, BASE))
        assert code == 0
        header = [line for line in out.splitlines() if line.startswith("#")]
        blob = "\n".join(line[2:] for line in header)
        assert "preset: bm" in blob and "order: 8" in blob

    def test_header_echoes_working_order(self, tmp_path, capsys):
        # BASE sets order 8 and no buffer; the default buffer of 2 runs it at 10
        code, out, _ = run_cli(capsys, "run", write_cfg(tmp_path, BASE))
        assert code == 0
        # the first header line names the version; the rest is YAML
        header = [line[2:] for line in out.splitlines() if line.startswith("#")]
        numerics = yaml.safe_load("\n".join(header[1:]))["numerics"]
        assert numerics == {"order": 8, "buffer": 2, "working_order": {8: 10}, "ode": "not read"}

    @pytest.mark.parametrize(
        "run,ode",
        [
            # a linear row is an exponential action: the setting is checked, not read
            ({"mode": "holomorphic", "T": 1.0}, "not read"),
            # an affine row integrates: the header holds every setting, defaults included
            ({"mode": "affine", "T": 1.0, "affine_route": "log-linear"},
             {"rtol": 1e-3, "atol": 1e-12, "first_step": None, "max_steps": 1_000_000}),
        ],
        ids=["holomorphic", "affine"],
    )
    def test_header_echoes_ode_where_read(self, tmp_path, capsys, run, ode):
        base = dict(BASE, run=run, function={"family": "polynomial", "coefficients": [0.0, 0.5]})
        loose = dict(base, numerics={"order": 8, "ode": {"rtol": 1e-3}})
        code, out, err = run_cli(capsys, "run", write_cfg(tmp_path, loose))
        assert code == 0, err
        header = [line[2:] for line in out.splitlines() if line.startswith("#")]
        assert yaml.safe_load("\n".join(header[1:]))["numerics"]["ode"] == ode
        # the loose tolerance moves the value exactly where the header says it is read
        args = argparse.Namespace(sweep_order=None, mc_paths=None, seed=None, out=None)
        values = [cli.run_config(cfg, args)[0].value for cfg in (loose, base)]
        assert (values[0] == values[1]) == (ode == "not read")

    def test_affine_routes_and_mc(self, tmp_path, capsys):
        cfg = {
            "model": {"preset": "compound-poisson"},
            "function": {"family": "polynomial", "coefficients": [0.0, 1.0]},
            "run": {"mode": "affine", "T": 1.0, "x0": 0.0, "affine_route": "both"},
            "numerics": {"order": 14},
            "oracles": {"mc": {"paths": 3000, "dt": 0.002, "seed": 3}},
        }
        code, out, _ = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 0
        values = {}
        for line in out.splitlines():
            if line.startswith(("riccati-flow", "log-linear-flow", "monte-carlo")):
                parts = line.split()
                values[parts[0]] = float(parts[2])
        # the table renders 6 significant digits
        exact = math.exp(0.5 + 2.0 * (math.cosh(0.5) - 1.0))
        assert values["riccati-flow"] == pytest.approx(exact, rel=1e-5)
        assert values["log-linear-flow"] == pytest.approx(exact, rel=1e-5)
        # MC row carries a diff column against the riccati value
        mc_line = next(line for line in out.splitlines() if line.startswith("monte-carlo"))
        assert float(mc_line.split()[3]) < 0.2

    def test_series_payoff_monte_carlo(self, tmp_path, capsys):
        # raw entries [[2, 2.0]] are h(x) = x^2; the simulated payoff runs
        # through the compiled real evaluator, never the complex kernel
        function = {"family": "series", "entries": [[2, 2.0]]}
        assert isinstance(cli._payoff(function, 1, 10)[1], ser.RealEvaluator)
        cfg = dict(BASE, function=function, oracles={"mc": {"paths": 4000, "dt": 0.01, "seed": 2}})
        code, out, _ = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 0
        mc_line = next(line for line in out.splitlines() if line.startswith("monte-carlo"))
        # E[X_1^2] = 1 with stderr about 0.022; the diff column is against the engine
        assert float(mc_line.split()[3]) < 0.1

    def test_chain_modes(self, tmp_path, capsys):
        cfg = {
            "model": {"preset": "two-state-affine"},
            "function": {"family": "values", "values": [0.3, -0.2]},
            "run": {"mode": "both", "T": 1.0, "x0": 1},
        }
        code, out, _ = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 0
        for tag in ("chain-ode", "matrix-exponential", "riccati-flow", "closed-form"):
            assert any(line.startswith(tag) for line in out.splitlines())
        closed = next(line for line in out.splitlines() if line.startswith("closed-form"))
        assert float(closed.split()[3]) < 1e-10

    def test_artifacts_written(self, tmp_path, capsys):
        out_dir = tmp_path / "art"
        code, _, _ = run_cli(
            capsys, "run", write_cfg(tmp_path, BASE), "--out", str(out_dir)
        )
        assert code == 0
        with open(out_dir / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["quantity"] == "linear-flow"
        assert float(rows[0]["value_re"]) == pytest.approx(1.0, abs=1e-6)
        with open(out_dir / "flow_linear.csv") as fh:
            flow = list(csv.DictReader(fh))
        assert flow[0]["t"] == "0" and "re[2]" in flow[0]
        assert float(flow[-1]["re[0]"]) == pytest.approx(1.0, abs=1e-9)

    def test_closed_flow_detail_and_columns(self, tmp_path, capsys):
        # h = x^2 on bm: L keeps degree two, so the order-10 row runs at 2;
        # its flow CSV keeps the columns of every degree up to 10
        out_dir = tmp_path / "art"
        code, out, _ = run_cli(capsys, "run", write_cfg(tmp_path, BASE), "--out", str(out_dir))
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("linear-flow"))
        assert row.endswith("closed at degree 2")
        with open(out_dir / "flow_linear.csv") as fh:
            flow = list(csv.DictReader(fh))
        assert list(flow[0])[-2:] == ["re[10]", "im[10]"]
        assert float(flow[-1]["re[2]"]) == 2.0 and float(flow[-1]["re[3]"]) == 0.0
        # a full series never closes
        cfg = dict(BASE, function={"family": "exp", "scale": 0.5})
        code, out, _ = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 0 and "closed at" not in out

    @pytest.mark.parametrize(
        "cfg,how",
        [
            # bm's L shifts by two degrees: the Taylor series ends after a few products
            (dict(BASE, function={"family": "exp", "scale": 0.5}), r"taylor, matvecs \d+, s 1$"),
            # unit-interval's L is stiff: the dense exponential, squared 11 times at order 18
            (dict(BASE, model={"preset": "unit-interval"}, function={"family": "exp"}, run={"T": 0.5, "x0": 0.5},
                  numerics={"order": 16}), r"pade, matvecs 1, squarings 11$"),
            # the other routes integrate, and report the right-hand sides
            (dict(BASE, run={"mode": "affine", "T": 0.5, "affine_route": "both"},
                  function={"family": "polynomial", "coefficients": [0.0, 0.5]}), r"nfev \d+"),
        ],
        ids=["linear-taylor", "linear-pade", "affine-routes"],
    )
    def test_flow_detail_names_the_method(self, tmp_path, capsys, cfg, how):
        code, out, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 0, err
        rows = [line for line in out.splitlines() if "-flow" in line]
        assert rows and all(re.search(how, row) for row in rows)

    def test_zero_reference_has_no_relative_diff(self, tmp_path, capsys):
        # E[X_T] = 0 for Brownian motion from the origin: the engine value is
        # exactly 0, so the Monte Carlo row gets an absolute difference only
        cfg = dict(
            BASE,
            function={"family": "polynomial", "coefficients": [0.0, 1.0]},
            oracles={"mc": {"paths": 2000, "dt": 0.01, "seed": 0}},
        )
        out_dir = tmp_path / "art"
        code, out, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg), "--out", str(out_dir))
        assert code == 0, err
        with open(out_dir / "results.csv") as fh:
            rows = {r["quantity"]: r for r in csv.DictReader(fh)}
        assert float(rows["linear-flow"]["value_re"]) == 0.0
        mc = rows["monte-carlo"]
        assert float(mc["abs_diff"]) == abs(float(mc["value_re"])) > 0
        assert mc["rel_diff"] == ""
        line = next(line for line in out.splitlines() if line.startswith("monte-carlo"))
        assert line.split()[3] == f"{float(mc['abs_diff']):.2e}"
        assert "e+" not in line

    def test_sweep_rows(self, tmp_path, capsys):
        cfg = dict(BASE, function={"family": "exp", "scale": 1.0})
        code, out, _ = run_cli(
            capsys, "run", write_cfg(tmp_path, cfg), "--sweep-order", "4,8,12"
        )
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("linear-flow N=")]
        assert len(rows) == 3
        # quantity tag has a space ("linear-flow N=4"), so the value sits at
        # split index 3; with no oracle, earlier orders diff against the last
        errs = [float(r.split()[4]) for r in rows[:2]]
        assert errs[0] > errs[1]
        assert float(rows[-1].split()[3]) == pytest.approx(math.exp(0.5), rel=1e-5)

    @pytest.mark.parametrize(
        "model,function",
        [
            ({"preset": "compound-poisson"}, {"family": "polynomial", "coefficients": [0.0, 0.5, 0.1]}),
            # a cubic drift and an affine jump size under an affine intensity: no route closes
            ({"drift": [[0, 0.1], [1, -0.3], [3, -0.2]], "diffusion": [[0, 0.2], [2, 0.05]],
              "kernel": {"intensity": [[0, 1.0], [1, 0.2]], "atoms": [{"weight": 0.5, "size": [[0, 0.1], [1, 0.05]]}]}},
             {"family": "exp", "scale": 0.5}),
        ],
        ids=["preset", "inline"],
    )
    def test_sweep_rows_equal_single_orders(self, model, function):
        # the sweep flows one model cut to each order; a single run builds it there
        cfg = {
            "model": model,
            "function": function,
            "run": {"mode": "both", "T": 0.5, "x0": 0.2, "affine_route": "both"},
            "numerics": {"order": 4},
        }
        orders = [6, 3, 9]
        args = lambda sweep: argparse.Namespace(sweep_order=sweep, mc_paths=None, seed=None, out=None)  # noqa: E731
        swept = cli.run_config(cfg, args(",".join(map(str, orders))))
        single = [r for n in orders for r in cli.run_config(dict(cfg, numerics={"order": n}), args(None))]
        assert len(swept) == len(single) == 9
        for a, b in zip(swept, single):
            assert a.quantity.split()[0] == b.quantity and (a.value, a.detail) == (b.value, b.detail)

    def test_sweep_drops_entries_above_a_row_order(self, tmp_path, capsys):
        # a degree-5 drift term is beyond the N=2 row's working order 4, so
        # that row flows the model without it, as payoff entries are dropped
        drift = [[1, -0.5], [5, 0.01]]
        cfg = dict(BASE, model={"drift": drift, "diffusion": [[0, 1.0]]})
        art = ("--out", str(tmp_path / "art"))
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg), "--sweep-order", "8,2", *art)
        assert code == 0, err
        cut = dict(cfg, model={"drift": drift[:1], "diffusion": [[0, 1.0]]}, numerics={"order": 2})
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cut, "cut.yaml"), "--out", str(tmp_path / "cut"))
        assert code == 0, err
        with open(tmp_path / "art" / "results.csv") as fh:
            rows = {r["quantity"]: r for r in csv.DictReader(fh)}
        with open(tmp_path / "cut" / "results.csv") as fh:
            want = next(csv.DictReader(fh))
        keys = ("value_re", "value_im", "detail")
        assert [rows["linear-flow N=2"][k] for k in keys] == [want[k] for k in keys]

    def test_readme_example_runs(self, tmp_path, capsys):
        # every key of the documented config is accepted, and it runs
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        cfg = yaml.safe_load(readme.split("```yaml\n", 1)[1].split("```", 1)[0])
        code, out, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg), "--mc-paths", "200")
        assert code == 0, err
        assert sum(line.startswith(("linear-flow", "riccati-flow", "log-linear-flow")) for line in out.splitlines()) == 3

    def test_dual_chain_row(self, tmp_path, capsys):
        cfg = dict(UNIT_INTERVAL, numerics={"order": 16}, oracles={"dual": {"k_max": 400}})
        out_dir = tmp_path / "art"
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg), "--out", str(out_dir))
        assert code == 0, err
        with open(out_dir / "results.csv") as fh:
            rows = list(csv.DictReader(fh))
        dual = [r for r in rows if r["quantity"] == "dual-chain"]
        assert len(dual) == 1 and dual[0]["kind"] == "oracle" and dual[0]["mode"] == "affine"
        assert all(key in dual[0]["detail"] for key in ("outflow", "bound", "rounding"))
        # the log-linear engine row is the reference of the oracle's diff
        assert float(dual[0]["rel_diff"]) <= 1e-4

    def test_dual_default_k_max_is_the_models(self):
        args = argparse.Namespace(sweep_order=None, mc_paths=None, seed=None, out=None)
        rows = []
        for dual in ({}, {"k_max": UnitIntervalModel().k_max}):
            rows += [r for r in cli.run_config(dict(UNIT_INTERVAL, oracles={"dual": dual}), args) if r.kind == "oracle"]
        assert len(rows) == 2 and (rows[0].value, rows[0].detail) == (rows[1].value, rows[1].detail)

    def test_one_element_x0_list_is_its_value(self, tmp_path, capsys):
        # the dual row reads x0 as a float; a dim-1 list must give the same table
        tables = []
        for x0 in (0.5, [0.5]):
            cfg = dict(UNIT_INTERVAL, run=dict(UNIT_INTERVAL["run"], x0=x0), oracles={"dual": {"k_max": 60}})
            code, out, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
            assert code == 0, err
            # the time column is the one cell that may differ
            body = [line for line in out.splitlines() if not line.startswith("#")]
            tables.append([" ".join(re.sub(r"(?<=  )\d+\.\d{3}(?=  |$)", "-", line).split()) for line in body])
        assert tables[0] == tables[1]
        assert any(line.startswith("dual-chain") for line in tables[0])

    @pytest.mark.skipif(not hasattr(yaml, "CSafeDumper"), reason="libyaml is not installed")
    @pytest.mark.parametrize(
        "which,flags",
        [("readme", ("--mc-paths", "200")), ("chain", ()), ("sweep", ("--sweep-order", "4,6"))],
    )
    def test_header_is_the_same_with_either_dumper(self, tmp_path, capsys, monkeypatch, which, flags):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        cfg = {
            "readme": yaml.safe_load(readme.split("```yaml\n", 1)[1].split("```", 1)[0]),
            "chain": {
                "model": {"preset": "two-state-affine"},
                "function": {"family": "values", "values": [0.3, -0.2]},
                "run": {"mode": "both", "T": 1.0, "x0": 1},
            },
            "sweep": dict(BASE, function={"family": "exp", "scale": 1.0}),
        }[which]
        path = write_cfg(tmp_path, cfg)

        def header():
            code, out, err = run_cli(capsys, "run", path, *flags)
            assert code == 0, err
            return [line for line in out.splitlines() if line.startswith("#")]

        with_c = header()
        # without it the header falls back to the pure-Python emitter
        monkeypatch.delattr(yaml, "CSafeDumper")
        assert header() == with_c and len(with_c) > 5

    def test_mc_override_flags(self, tmp_path, capsys):
        cfg = dict(BASE, oracles={"mc": {"paths": 5000, "dt": 0.005, "seed": 1}})
        code, out, _ = run_cli(
            capsys, "run", write_cfg(tmp_path, cfg), "--mc-paths", "800", "--seed", "7"
        )
        assert code == 0
        mc = next(line for line in out.splitlines() if line.startswith("monte-carlo"))
        assert "paths 800" in mc

    def test_mc_row_counts_jumps(self, tmp_path, capsys):
        # printed, like clamps and absorptions, only when there are any
        oracles = {"mc": {"paths": 500, "dt": 0.01, "seed": 1}}
        for preset, jumps in (("compound-poisson", True), ("bm", False)):
            cfg = dict(BASE, model={"preset": preset}, oracles=oracles)
            code, out, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
            assert code == 0, err
            mc = next(line for line in out.splitlines() if line.startswith("monte-carlo"))
            found = re.search(r", jumps (\d+)", mc)
            assert (found is not None and int(found.group(1)) > 0) if jumps else found is None


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "nope.yaml"))
        assert code == 2 and "config error" in err

    def test_invalid_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("model: [unclosed\n")
        code, _, err = run_cli(capsys, "run", str(path))
        assert code == 2 and "invalid YAML" in err

    def test_negative_order_names_field(self, tmp_path, capsys):
        cfg = dict(BASE, numerics={"order": -3})
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and "numerics.order" in err

    def test_unknown_preset(self, tmp_path, capsys):
        cfg = dict(BASE, model={"preset": "zebra"})
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and "available" in err

    def test_bad_mode(self, tmp_path, capsys):
        cfg = dict(BASE, run={"mode": "sideways", "T": 1.0})
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and "mode" in err

    def test_dual_needs_unit_interval(self, tmp_path, capsys):
        cfg = dict(
            BASE,
            run={"mode": "affine", "T": 0.5},
            function={"family": "polynomial", "coefficients": [0.0, 1.0]},
            oracles={"dual": {"k_max": 100}},
        )
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and "unit-interval" in err

    @pytest.mark.parametrize("x0,code", [(1.5, 2), (-0.5, 2), (0.0, 0), (1.0, 0)])
    def test_dual_needs_x0_in_unit_interval(self, tmp_path, capsys, monkeypatch, x0, code):
        # the bound the dual row prints holds on [0, 1] only; outside, the
        # config is rejected before any flow
        if code:
            monkeypatch.setattr(cli, "affine_expectation", _no_flow)
        cfg = dict(UNIT_INTERVAL, run=dict(UNIT_INTERVAL["run"], x0=x0), oracles={"dual": {"k_max": 60}})
        got, out, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert got == code, err
        if code:
            assert "run.x0" in err
        else:
            assert any(line.startswith("dual-chain") for line in out.splitlines())

    def test_grid_failure(self, tmp_path, capsys):
        cfg = {
            "model": {"dim": 1, "diffusion": [[[1], 1.0]]},  # a(x) = x < 0 at x < 0
            "function": {"family": "polynomial", "coefficients": [0.0, 0.0, 1.0]},
            "run": {"mode": "holomorphic", "T": 1.0},
            "grid": {"lo": -1.0, "hi": 1.0, "n": 5},
        }
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and "diffusion-not-psd" in err

    def test_grid_through_pole_origin(self, tmp_path, capsys):
        # the absorbing origin: an infinite intensity and a zero jump are expected there
        cfg = dict(UNIT_INTERVAL, grid={"lo": 0.0, "hi": 1.0, "n": 5})
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 0, err

    def test_grid_failure_names_float_points(self, tmp_path, capsys):
        cfg = {
            "model": {"dim": 1, "diffusion": [[[1], 1.0]]},
            "function": {"family": "polynomial", "coefficients": [0.0, 0.0, 1.0]},
            "run": {"mode": "holomorphic", "T": 1.0},
            "grid": {"lo": -1.0, "hi": 1.0, "n": 5},
        }
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and "diffusion-not-psd at (-1.0,)" in err and "np.float64" not in err

    def test_grid_jump_leaves_box(self, tmp_path, capsys, monkeypatch):
        # compound-poisson jumps by +-1/2, so from x = 1 it lands outside [-1, 1]
        monkeypatch.setattr(cli, "holomorphic_expectation", _no_flow)
        cfg = dict(BASE, model={"preset": "compound-poisson"}, grid={"lo": -1.0, "hi": 1.0, "n": 3, "box": [-1.0, 1.0]})
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and "jump-leaves-box at (1.0,)" in err

    @pytest.mark.parametrize(
        "bounds,key",
        [({"lo": math.nan, "hi": math.nan}, "grid.lo"), ({"hi": math.inf}, "grid.hi"), ({"lo": -math.inf}, "grid.lo")],
    )
    def test_non_finite_grid_bound_names_key(self, tmp_path, capsys, monkeypatch, bounds, key):
        # NaN points would pass every grid check: with finite bounds this
        # config fails on jumps leaving the box
        monkeypatch.setattr(cli, "holomorphic_expectation", _no_flow)
        grid = dict({"lo": -1.0, "hi": 1.0, "n": 3, "box": [-0.1, 0.1]}, **bounds)
        cfg = dict(BASE, model={"preset": "compound-poisson"}, grid=grid)
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and key in err

    @pytest.mark.parametrize(
        "function,key",
        [
            ({"family": "polynomial", "coefficients": [0.0, math.nan, 1.0]}, "function.coefficients"),
            ({"family": "polynomial", "coefficients": [0.0, math.inf]}, "function.coefficients"),
            ({"family": "series", "entries": [[2, math.inf]]}, "function.entries"),
            ({"family": "series", "entries": [[2, 1.0, math.nan]]}, "function.entries"),
        ],
    )
    def test_non_finite_payoff_names_key(self, tmp_path, capsys, monkeypatch, function, key):
        monkeypatch.setattr(cli, "holomorphic_expectation", _no_flow)
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, dict(BASE, function=function)))
        assert code == 2 and key in err

    @pytest.mark.parametrize("box", [[0.0], [-1.0, 0.0, 1.0], [[-1.0, -1.0], [1.0, 1.0]], [-1.0, "top"], {"lo": -1.0}])
    def test_malformed_grid_box(self, tmp_path, capsys, monkeypatch, box):
        monkeypatch.setattr(cli, "holomorphic_expectation", _no_flow)
        cfg = dict(BASE, model={"preset": "compound-poisson"}, grid={"lo": -1.0, "hi": 1.0, "n": 3, "box": box})
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and "grid.box" in err

    def test_order_beyond_float_factorials(self, tmp_path, capsys):
        # working order 171 through the default buffer; 171! overflows a float
        cfg = dict(BASE, numerics={"order": 169})
        code, out, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 0, err
        row = next(line for line in out.splitlines() if line.startswith("linear-flow"))
        assert float(row.split()[2]) == pytest.approx(1.0, abs=1e-9)

    def test_numerical_blowup_exits_3(self, tmp_path, capsys):
        # E[exp(X_1^2)] for a standard normal diverges; flow must underflow
        cfg = {
            "model": {"dim": 1, "diffusion": [[[0], 1.0]]},
            "function": {"family": "polynomial", "coefficients": [0.0, 0.0, 1.0]},
            "run": {"mode": "affine", "T": 1.0, "x0": 0.0},
            "numerics": {"order": 8},
        }
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 3 and "numerical failure" in err

    def test_non_finite_linear_flow_exits_3(self, tmp_path, capsys):
        # drift x: the coefficient of x grows like e^T, past the float range at T = 1000
        cfg = dict(
            BASE,
            model={"drift": [[1, 1.0]]},
            function={"family": "polynomial", "coefficients": [0.0, 1.0]},
            run={"mode": "holomorphic", "T": 1000.0, "x0": 0.5},
        )
        code, out, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 3 and "linear-flow" not in out
        assert "FlowBudgetError" in err and "||T L||_1 = 1.000e+03" in err
        assert "nan" not in err.lower() and "RuntimeWarning" not in err

    @pytest.mark.parametrize("entries", [[[2]], [[2, 2.0, 0.0, 99.0]]])
    def test_malformed_payoff_entries(self, tmp_path, capsys, entries):
        cfg = dict(BASE, function={"family": "series", "entries": entries})
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and "function.entries" in err

    @pytest.mark.parametrize("imag", [1.0, 0.0])
    def test_mc_oracle_needs_a_real_payoff(self, tmp_path, capsys, monkeypatch, imag):
        # the oracle simulates Re h, so for h = (0.5 + i) x it would print
        # E[exp(Re h)] = 1.12857 next to the engine's 0.603153+0.329505j
        if imag:
            monkeypatch.setattr(cli, "affine_expectation", _no_flow)
        cfg = dict(
            BASE,
            function={"family": "series", "entries": [[1, 0.5, imag]]},
            run={"mode": "affine", "T": 1.0, "x0": 0.0},
            oracles={"mc": {"paths": 200, "dt": 0.01}},
        )
        code, out, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        if imag:
            assert code == 2 and "oracles.mc" in err and "function.entries" in err
        else:
            assert code == 0, err
            assert any(line.startswith("monte-carlo") for line in out.splitlines())

    def test_negative_intensity_in_simulation_exits_3(self, tmp_path, capsys):
        # intensity 1 - x is negative at the start state x0 = 2
        cfg = {
            "model": {
                "dim": 1,
                "diffusion": [[0, 1.0]],
                "kernel": {"intensity": [[0, 1.0], [1, -1.0]], "atoms": [{"weight": 1.0, "size": [[0, 0.1]]}]},
            },
            "function": {"family": "polynomial", "coefficients": [0.0, 1.0]},
            "run": {"mode": "holomorphic", "T": 0.1, "x0": 2.0},
            "numerics": {"order": 6},
            "oracles": {"mc": {"paths": 50, "dt": 0.001}},
        }
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 3 and "negative jump intensity" in err

    @pytest.mark.parametrize(
        "section,setting",
        [
            ("ode", {"method": "rk4"}),
            ("ode", {"fixed_step": 1e-3}),
            ("ode", {"ref_radius": 2.0}),
            ("mc", {"intensity_bound": 3.0}),
            ("mc", {"batch": 1000}),
            ("mc", {"enabled": True}),
            ("dual", {"enabled": True}),
            ("dual", {"tail_threshold": 1e-6}),
            ("dual", {"kmax": 10}),
        ],
    )
    def test_removed_settings_rejected(self, tmp_path, capsys, section, setting):
        if section == "ode":
            cfg = dict(BASE, numerics={"order": 8, "ode": setting})
        elif section == "mc":
            cfg = dict(BASE, oracles={"mc": {"paths": 100, "dt": 0.01, **setting}})
        else:
            cfg = dict(UNIT_INTERVAL, oracles={"dual": {"k_max": 100, **setting}})
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and next(iter(setting)) in err

    @pytest.mark.parametrize(
        "edit,key",
        [
            (lambda c: c.update(modle={"preset": "bm"}), "modle"),
            (lambda c: c["run"].update(affine_rout="log-linear"), "affine_rout"),
            (lambda c: c["numerics"].update(ordr=20), "ordr"),
            (lambda c: c.update(grid={"n": 5, "nn": 3}), "nn"),
            (lambda c: c.update(oracles={"montecarlo": {"paths": 10}}), "montecarlo"),
            (lambda c: c["function"].update(scale=2.0), "scale"),
            (lambda c: c.update(function={"family": "exp", "scal": 2.0}), "scal"),
            (lambda c: c.update(function={"family": "series", "entries": [[2, 2.0]], "coefficients": [1.0]}),
             "coefficients"),
            (lambda c: c["model"].update(dim=1), "dim"),
            (lambda c: c.update(model={"diffusion": [[0, 1.0]], "drfit": [[0, 1.0]]}), "drfit"),
            # chain models read no numerics section, so their cases drop BASE's
            (lambda c: (c.pop("numerics"), c.update(model={"preset": "finite-chain"},
                        function={"family": "values", "values": [1, 0, 0, 0], "scale": 2.0})), "scale"),
            (lambda c: (c.pop("numerics"), c.update(model={"preset": "finite-chain"},
                        function={"family": "values", "values": [1, 0, 0, 0]},
                        run={"mode": "both", "T": 1.0, "x0": 0, "affine_route": "riccati"})), "affine_route"),
            (lambda c: (c.pop("numerics"), c.update(model={"preset": "two-state-affine"},
                        function={"family": "values", "values": [1, 0]},
                        run={"mode": "both", "T": 1.0, "x0": 0}, oracles={"mc": {"paths": 10}})), "oracles"),
            (lambda c: c.update(grid={"lo": -1.0, "hi": 1.0, "n": 0}), "grid.n"),
            # three typos at once: the first one read is named
            (lambda c: (c["run"].update(affine_rout="log-linear"), c.update(numerics={"ordr": 20}, grid={"n": 0, "nn": 3})),
             "ordr"),
            # values of the wrong type are rejected, not truncated or coerced
            pytest.param(lambda c: c["numerics"].update(order=6.7), "numerics.order", id="float-order"),
            pytest.param(lambda c: c["numerics"].update(buffer=1.5), "numerics.buffer", id="float-buffer"),
            pytest.param(lambda c: c.update(grid={"lo": -1.0, "hi": 1.0, "n": 3.5}), "grid.n", id="float-grid-n"),
            pytest.param(lambda c: (c.pop("numerics"), c.update(model={"preset": "two-state-affine"},
                                            function={"family": "values", "values": [1, 0]},
                                            run={"mode": "both", "T": 1.0, "x0": True})), "run.x0", id="bool-chain-x0"),
            # a non-finite horizon or start point
            pytest.param(lambda c: c["run"].update(T=math.inf), "run.T", id="inf-T"),
            pytest.param(lambda c: c["run"].update(T=math.nan), "run.T", id="nan-T"),
            pytest.param(lambda c: c["run"].update(x0=math.nan), "run.x0", id="nan-x0"),
            pytest.param(lambda c: (c.pop("numerics"), c.update(model={"preset": "two-state-affine"},
                                            function={"family": "values", "values": [1, 0]},
                                            run={"mode": "both", "T": math.inf, "x0": 0})), "run.T", id="inf-chain-T"),
            # a chain model has no numerics to tune
            pytest.param(lambda c: c.update(model={"preset": "two-state-affine"},
                                            function={"family": "values", "values": [1, 0]},
                                            run={"mode": "both", "T": 1.0, "x0": 0},
                                            numerics={"ode": {"rtol": 1e-3}}), "numerics", id="chain-numerics"),
            # integrator settings that cannot steer a step
            pytest.param(lambda c: c["numerics"].update(ode={"rtol": math.nan}), "numerics.ode.rtol", id="nan-rtol"),
            pytest.param(lambda c: c["numerics"].update(ode={"atol": math.inf}), "numerics.ode.atol", id="inf-atol"),
            pytest.param(lambda c: c["numerics"].update(ode={"first_step": math.nan}), "numerics.ode.first_step",
                         id="nan-first-step"),
            pytest.param(lambda c: c["numerics"].update(ode={"max_steps": 2.5}), "numerics.ode.max_steps",
                         id="float-max-steps"),
            pytest.param(lambda c: c["numerics"].update(ode={"max_steps": True}), "numerics.ode.max_steps",
                         id="bool-max-steps"),
            # a payoff that is not finite
            pytest.param(lambda c: c.update(function={"family": "exp", "amplitude": math.inf}), "function.amplitude",
                         id="inf-amplitude"),
            pytest.param(lambda c: c.update(function={"family": "cos", "scale": math.nan}), "function.scale",
                         id="nan-scale"),
            # a bool or a string is not a number, and a series exponent is an integer
            pytest.param(lambda c: c["run"].update(T=True), "run.T", id="bool-T"),
            pytest.param(lambda c: c["run"].update(T="abc"), "run.T", id="string-T"),
            pytest.param(lambda c: c["run"].update(x0=True), "run.x0", id="bool-x0"),
            pytest.param(lambda c: c.update(grid={"lo": "-1", "hi": 1.0, "n": 3}), "grid.lo", id="string-grid-lo"),
            pytest.param(lambda c: c.update(function={"family": "exp", "scale": True}), "function.scale",
                         id="bool-scale"),
            pytest.param(lambda c: c.update(function={"family": "polynomial", "coefficients": [0.0, "1"]}),
                         "function.coefficients", id="string-coefficient"),
            pytest.param(lambda c: c.update(function={"family": "series", "entries": [[[1.5], 2.0]]}),
                         "function.entries", id="float-exponent"),
            pytest.param(lambda c: c.update(function={"family": "series", "entries": [[True, 2.0]]}),
                         "function.entries", id="bool-exponent"),
            pytest.param(lambda c: (c.pop("numerics"), c.update(model={"preset": "two-state-affine"},
                                            function={"family": "values", "values": [math.nan, 1.0]},
                                            run={"mode": "both", "T": 1.0, "x0": 0})), "function.values",
                         id="nan-chain-values"),
            # an inline model's dimension is a positive integer
            pytest.param(lambda c: c.update(model={"dim": 1.5, "diffusion": [[0, 1.0]]}), "model.dim", id="float-dim"),
            # a bool is not an integrator tolerance
            pytest.param(lambda c: c["numerics"].update(ode={"rtol": True}), "numerics.ode.rtol", id="bool-rtol"),
        ],
    )
    def test_config_typos_rejected(self, tmp_path, capsys, monkeypatch, edit, key):
        for flow in ("holomorphic_expectation", "chain_expectation", "chain_affine_flow"):
            monkeypatch.setattr(cli, flow, _no_flow)
        cfg = {k: dict(v) for k, v in BASE.items()}
        edit(cfg)
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and key in err

    @pytest.mark.parametrize(
        "kernel,key",
        [
            ({"intensity": [[0, 1.0]], "atoms": [{"weight": 1.0, "size": [[0, 0.1]]}], "pole_ordr": 1}, "pole_ordr"),
            ({"intensity": [[0, 1.0]], "atoms": [{"weight": 1.0, "size": [[0, 0.1]], "wieght": 2.0}]}, "wieght"),
            ({"intensity": [[0, 1.0]], "atom": [{"weight": 1.0, "size": [[0, 0.1]]}]}, "atom"),
            ({"intensity": [[0, 1.0]], "atoms": [{"weight": 1.0, "size": [[0, 0.1]]}, {"weight": 0.5, "sizes": [[0, 0.2]]}]},
             "sizes"),
            ({"intensity": [[0, 1.0]], "atoms": [{"weight": 1.0}]}, "kernel atom 0 needs a 'size'"),
            ({"intensity": [[0, 1.0]], "atoms": [{"weight": 1.0, "size": [[0, 0.1]]}, [0.5]]},
             "kernel atom 1 must be a mapping"),
            ({"intensity": [[0, 1.0]], "atoms": {"edge": {"weight": 1.0, "size": [[0, 0.1]]}}}, "model.kernel.atoms"),
            # a pole order is an integer, and an atom weight a finite number >= 0
            ({"intensity": [[0, 1.0]], "atoms": [{"weight": 1.0, "size": [[1, -1.0]]}], "pole_order": 1.5},
             "pole_order"),
            ({"intensity": [[0, 1.0]], "atoms": [{"weight": 1.0, "size": [[1, -1.0]]}], "pole_order": True},
             "pole_order"),
            ({"intensity": [[0, 1.0]], "atoms": [{"weight": math.nan, "size": [[0, 0.1]]}]}, "weight"),
            ({"intensity": [[0, 1.0]], "atoms": [{"weight": math.inf, "size": [[0, 0.1]]}]}, "weight"),
            ({"intensity": [[0, 1.0]], "atoms": [{"weight": "1", "size": [[0, 0.1]]}]}, "kernel atom 0 weight"),
        ],
    )
    def test_kernel_typos_rejected(self, tmp_path, capsys, monkeypatch, kernel, key):
        monkeypatch.setattr(cli, "holomorphic_expectation", _no_flow)
        cfg = dict(BASE, model={"diffusion": [[0, 1.0]], "kernel": kernel})
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and key in err

    @pytest.mark.parametrize(
        "model,name",
        [
            ({"drift": [[[1.5], 0.1]]}, "drift[0]"),
            ({"diffusion": [[[1.5], 0.1]]}, "diffusion[0][0]"),
            ({"kernel": {"intensity": [[[1.5], 0.1]], "atoms": [{"weight": 1.0, "size": [[0, 0.1]]}]}},
             "kernel.intensity"),
            ({"kernel": {"intensity": [[0, 1.0]], "atoms": [{"weight": 1.0, "size": [[[1.5], 0.1]]}]}},
             "kernel atom 0 size[0]"),
            ({"dim": 2, "drift": [None, [[[0, 1], "0.1"]]]}, "drift[1]"),
            ({"dim": 2, "diffusion": [[None, None], [[[[0, -1], 1.0]], None]]}, "diffusion[1][0]"),
        ],
        ids=["drift", "diffusion", "intensity", "atom-size", "dim-two-drift", "dim-two-diffusion"],
    )
    def test_bad_series_entry_names_its_characteristic(self, tmp_path, capsys, monkeypatch, model, name):
        monkeypatch.setattr(cli, "holomorphic_expectation", _no_flow)
        cfg = dict(BASE, model=model)
        if model.get("dim") == 2:
            cfg["function"] = {"family": "series", "entries": [[[2, 0], 2.0]]}
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and f"model: {name}: series entry" in err

    def test_scalar_x0_in_dim_two_names_field(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "holomorphic_expectation", _no_flow)
        cfg = dict(DIM_TWO, run={"mode": "holomorphic", "T": 1.0, "x0": 0.3})
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and "run.x0" in err

    def test_missing_x0_in_dim_two_is_the_origin(self, tmp_path, capsys):
        at_origin = dict(DIM_TWO, run={"mode": "holomorphic", "T": 1.0, "x0": [0.0, 0.0]})
        _, want, _ = run_cli(capsys, "run", write_cfg(tmp_path, at_origin))
        code, out, err = run_cli(capsys, "run", write_cfg(tmp_path, DIM_TWO))
        assert code == 0, err
        rows = [[line for line in text.splitlines() if line.startswith("linear-flow")] for text in (out, want)]
        assert rows[0] and rows[0][0].split()[:3] == rows[1][0].split()[:3]

    @pytest.mark.parametrize(
        "oracles,key",
        [
            ({"mc": {"paths": -1, "dt": 0.01}}, "paths"),
            ({"dual": {"kmax": 10}}, "kmax"),
            ({"mc": {"paths": 2000, "dt": 0.01, "state_box": [1.0, -1.0]}}, "state_box"),
            ({"mc": {"paths": 2000, "dt": 0.01, "state_box": [-1.0, 1.0, 2.0]}}, "state_box"),
            ({"dual": {"k_max": 400.5}}, "oracles.dual.k_max"),
            ({"mc": {"paths": 1.5, "dt": 0.01}}, "oracles.mc.paths"),
            ({"mc": {"paths": True, "dt": 0.01}}, "oracles.mc.paths"),
            ({"mc": {"paths": 100, "dt": 0.01, "seed": -1}}, "oracles.mc.seed"),
            ({"mc": {"paths": 100, "dt": 0.01, "seed": 2.5}}, "oracles.mc.seed"),
            ({"mc": {"paths": 100, "dt": math.nan}}, "oracles.mc.dt"),
            ({"dual": {"k_max": 2}}, "oracles.dual.k_max"),
            ({"mc": {"paths": 100, "dt": 0.01, "absorb_delta": math.nan}}, "oracles.mc.absorb_delta"),
            ({"mc": {"paths": 100, "dt": 0.01, "absorb_delta": "small"}}, "oracles.mc.absorb_delta"),
            ({"mc": {"paths": 100, "dt": True}}, "oracles.mc.dt"),
            ({"mc": {"paths": 100, "dt": 0.01, "state_box": [True, 2.0]}}, "oracles.mc.state_box"),
        ],
    )
    def test_oracle_settings_checked_before_flows(self, tmp_path, capsys, monkeypatch, oracles, key):
        monkeypatch.setattr(cli, "holomorphic_expectation", _no_flow)
        monkeypatch.setattr(cli, "affine_expectation", _no_flow)
        cfg = dict(UNIT_INTERVAL, oracles=oracles)
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 2 and key in err

    @pytest.mark.parametrize(
        "cfg,argv,message",
        [
            (
                dict(BASE, model={"preset": "compound-poisson"}, oracles={"mc": {"dt": 0.3}}),
                ("--sweep-order", "8,12,16"),
                "T=1.0 is not a whole number of dt=0.3 steps",
            ),
            (
                dict(DIM_TWO, oracles={"mc": {"dt": 0.01, "state_box": [0.0, 1.0]}}),
                (),
                "state_box reflection is supported in dimension one only",
            ),
        ],
    )
    def test_simulation_checked_before_flows(self, tmp_path, capsys, monkeypatch, cfg, argv, message):
        # the simulator's own checks of a run fail here before any flow
        flows = []
        flow = cli.holomorphic_expectation
        monkeypatch.setattr(cli, "holomorphic_expectation", lambda *a: flows.append(a) or flow(*a))
        code, _, err = run_cli(capsys, "run", write_cfg(tmp_path, cfg), *argv)
        assert (code, len(flows), err) == (2, 0, f"config error: {message}\n")

    def test_chain_rejects_sweep(self, tmp_path, capsys):
        cfg = {
            "model": {"preset": "finite-chain"},
            "function": {"family": "values", "values": [1.0, 0.0, 0.0, 0.0]},
            "run": {"mode": "holomorphic", "T": 1.0, "x0": 0},
        }
        code, _, err = run_cli(
            capsys, "run", write_cfg(tmp_path, cfg), "--sweep-order", "4,8"
        )
        assert code == 2 and "finite chains" in err


class TestPayoffFamilies:
    @pytest.mark.parametrize(
        "family,scale,exact",
        [
            ("cos", 1.0, math.exp(-0.5) * math.cos(0.0)),
            ("sin", 0.5, 0.0),
        ],
    )
    def test_trig_payoffs(self, tmp_path, capsys, family, scale, exact):
        # E[cos(X_1)] = e^{-1/2}; E[sin(X_1/2)] = 0 by symmetry
        cfg = dict(BASE, function={"family": family, "scale": scale}, numerics={"order": 16})
        code, out, _ = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("linear-flow"))
        assert float(row.split()[2]) == pytest.approx(exact, abs=1e-5)

    def test_series_entries_payoff(self, tmp_path, capsys):
        cfg = dict(
            BASE,
            function={"family": "series", "entries": [[[2], 1.0]]},
            numerics={"order": 6},
        )
        code, out, _ = run_cli(capsys, "run", write_cfg(tmp_path, cfg))
        assert code == 0
        row = next(line for line in out.splitlines() if line.startswith("linear-flow"))
        # derivative-convention entry u_2 = 1 is h(x) = x^2/2
        assert float(row.split()[2]) == pytest.approx(0.5, abs=1e-9)
