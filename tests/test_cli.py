"""End-to-end checks of the command-line front end.

Each test drives ``cli.main`` in-process with a JSON config in a temp
directory and inspects the files it writes.
"""

import ctypes
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bridgerates import cli, load_samples

REPO = Path(__file__).resolve().parents[1]


def write_config(path, **kwargs):
    path.write_text(json.dumps(kwargs), encoding="utf-8")
    return str(path)


def run(tmp_path, command, config, extra=()):
    out = tmp_path / "out"
    code = cli.main([command, "--config", config, "--out", str(out), *extra])
    return code, out


SYM = [[-1.0, 1.0], [1.0, -1.0]]


def test_chain_info_outputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", generator=SYM, t0=0.5)
    code, out = run(tmp_path, "chain-info", cfg)
    assert code == 0
    for suffix in (".json", ".schema.json", ".csv"):
        assert (out / f"chain-info{suffix}").exists()
    payload = json.loads((out / "chain-info.json").read_text())
    assert payload["n_states"] == 2
    assert payload["irreducible"] is True
    assert payload["invariant"] == pytest.approx([0.5, 0.5])
    assert payload["transition_t0"][0][0] == pytest.approx(0.6839397205857212)
    assert isinstance(payload["config_hash"], str) and len(payload["config_hash"]) == 64
    assert payload["seed"] == 0


def test_rerun_is_byte_identical(tmp_path):
    # every oracle and bridge sample is drawn afresh, so a rerun must redraw
    # the same samples from the config's seed
    cases = [
        ("rates", dict(t0=0.5, rho=[0.7, 0.3])),
        ("infconv", dict(t0=0.5, mode="occupation", n_samples=1000, seed=11, rho=[0.7, 0.3])),
        ("infconv", dict(t0=0.5, mode="flux", n_samples=1000, seed=11, rho=[0.5, 0.5],
                         flux=[[0.0, 1.0], [1.0, 0.0]])),
        ("bridge-sample", dict(t0=0.5, mode="flux", n_samples=300, seed=5)),
    ]
    for idx, (command, keys) in enumerate(cases):
        cfg = write_config(tmp_path / f"cfg{idx}.json", generator=SYM, **keys)
        out_a = tmp_path / f"a{idx}"
        out_b = tmp_path / f"b{idx}"
        assert cli.main([command, "--config", cfg, "--out", str(out_a)]) == 0
        assert cli.main([command, "--config", cfg, "--out", str(out_b)]) == 0
        names = sorted(path.name for path in out_a.iterdir())
        assert names == sorted(path.name for path in out_b.iterdir())
        assert {f"{command}{suffix}" for suffix in (".json", ".schema.json", ".csv")} <= set(names)
        if command == "bridge-sample":
            assert sum(name.endswith(".f64") for name in names) == 4
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), (command, name)


# One payload holding every type the output walk maps, and the exact bytes of
# the three files written for it.
PINNED_PAYLOAD = {
    "zeta": {"b": np.array([[0.5, -1.25], [math.inf, 1e-300]]), "a": np.float64(0.1)},
    "count": np.int64(7),
    "flag": np.bool_(True),
    "ok": False,
    "n": 3,
    "bad": [math.nan, math.inf, -math.inf],
    "none": None,
    "name": "sym2",
    "pair": (1, 2.5),
    "empty": [],
}

PINNED_JSON = """\
{
  "bad": [
    "nan",
    "inf",
    "-inf"
  ],
  "config_hash": "c0ffee",
  "count": 7,
  "empty": [],
  "flag": true,
  "n": 3,
  "name": "sym2",
  "none": null,
  "ok": false,
  "pair": [
    1,
    2.5
  ],
  "seed": 5,
  "zeta": {
    "a": 0.1,
    "b": [
      [
        0.5,
        -1.25
      ],
      [
        "inf",
        1e-300
      ]
    ]
  }
}
"""

PINNED_SCHEMA = """\
{
  "properties": {
    "bad": {
      "items": {
        "type": "string"
      },
      "type": "array"
    },
    "config_hash": {
      "type": "string"
    },
    "count": {
      "type": "integer"
    },
    "empty": {
      "items": {},
      "type": "array"
    },
    "flag": {
      "type": "boolean"
    },
    "n": {
      "type": "integer"
    },
    "name": {
      "type": "string"
    },
    "none": {
      "type": "null"
    },
    "ok": {
      "type": "boolean"
    },
    "pair": {
      "items": {
        "anyOf": [
          {
            "type": "integer"
          },
          {
            "type": "number"
          }
        ]
      },
      "type": "array"
    },
    "seed": {
      "type": "integer"
    },
    "zeta": {
      "properties": {
        "a": {
          "type": "number"
        },
        "b": {
          "items": {
            "anyOf": [
              {
                "items": {
                  "type": "number"
                },
                "type": "array"
              },
              {
                "items": {
                  "anyOf": [
                    {
                      "type": "string"
                    },
                    {
                      "type": "number"
                    }
                  ]
                },
                "type": "array"
              }
            ]
          },
          "type": "array"
        }
      },
      "type": "object"
    }
  },
  "type": "object"
}
"""

PINNED_CSV = "".join(f"{line}\r\n" for line in """\
metric,value,config_hash,seed
bad.0,nan,c0ffee,5
bad.1,inf,c0ffee,5
bad.2,-inf,c0ffee,5
count,7,c0ffee,5
flag,1,c0ffee,5
n,3,c0ffee,5
ok,0,c0ffee,5
pair.0,1,c0ffee,5
pair.1,2.5,c0ffee,5
zeta.a,0.1,c0ffee,5
zeta.b.0.0,0.5,c0ffee,5
zeta.b.0.1,-1.25,c0ffee,5
zeta.b.1.0,inf,c0ffee,5
zeta.b.1.1,1e-300,c0ffee,5
""".splitlines())


def test_outputs_of_every_mapped_type_are_pinned(tmp_path):
    cli._write_outputs(tmp_path, "pin", PINNED_PAYLOAD, "c0ffee", 5)
    assert (tmp_path / "pin.json").read_bytes() == PINNED_JSON.encode()
    assert (tmp_path / "pin.schema.json").read_bytes() == PINNED_SCHEMA.encode()
    assert (tmp_path / "pin.csv").read_bytes() == PINNED_CSV.encode()
    assert sorted(path.name for path in tmp_path.iterdir()) == ["pin.csv", "pin.json", "pin.schema.json"]


def test_main_runs_different_commands_in_one_process(tmp_path):
    # the parser is built once per process and shared by every call
    cfg = write_config(tmp_path / "cfg.json", generator=SYM, t0=0.5, rho=[0.7, 0.3])
    assert cli.main(["rates", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["chain-info", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    assert json.loads((tmp_path / "a" / "rates.json").read_text())["dvg"]["value"] > 0.0
    assert json.loads((tmp_path / "b" / "chain-info.json").read_text())["n_states"] == 2
    assert not (tmp_path / "a" / "chain-info.json").exists()


def test_every_subcommand_has_help(capsys):
    with pytest.raises(SystemExit) as done:
        cli.main(["--help"])
    assert done.value.code == 0
    listing = " ".join(capsys.readouterr().out.split())
    for name, handler in cli.HANDLERS.items():
        words = (handler.__doc__ or "").split()
        assert words, name
        assert f"{name} {' '.join(words[:3])}" in listing, name


def test_unknown_config_key_fails(tmp_path):
    # lam_box among them: the conjugate box is a constant, not a config key
    for key in ("typo_key", "lam_box"):
        cfg = write_config(tmp_path / f"{key}.json", generator=SYM, **{key: 1})
        code, out = run(tmp_path / key, "chain-info", cfg)
        assert code == 1
        error = json.loads((out / "error.json").read_text())
        assert error["command"] == "chain-info"
        assert error["error"] == "ValueError"
        assert key in error["message"]
        assert not (out / "chain-info.json").exists()


def test_missing_generator_fails(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", rho=[0.5, 0.5])
    code, out = run(tmp_path, "rates", cfg)
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert "generator" in error["message"]


def test_env_seed_overrides_config(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json", generator=SYM, seed=3)
    monkeypatch.setenv(cli.SEED_ENV, "777")
    code, out = run(tmp_path, "chain-info", cfg)
    assert code == 0
    payload = json.loads((out / "chain-info.json").read_text())
    assert payload["seed"] == 777


@pytest.mark.parametrize("command, keys, error_name", [
    ("contract", {"t0": -1}, "ChainError"),
    ("contract", {"mode": "nope"}, "ValueError"),
    ("rates", {"seed": 1.5}, "ValueError"),
    ("rates", {"seed": -1}, "ValueError"),
    ("rates", {"n_samples": "x"}, "ValueError"),
    ("chain-info", {"epsilon": -3}, "ValueError"),
    ("chain-info", {"rho": "abc"}, "ValueError"),
    ("chain-info", {"n_grid": [True]}, "ValueError"),
    ("chain-info", {"theta": 5}, "ValueError"),
    ("chain-info", {"x": 1.5, "y": 0}, "ValueError"),
    ("contract", {"x": 1.5, "y": 0}, "ValueError"),
    ("contract", {"flux": "zz"}, "ValueError"),
], ids=["contract-t0", "contract-mode", "rates-float-seed", "rates-negative-seed",
        "rates-n_samples", "chain-info-epsilon", "chain-info-rho", "chain-info-bool-grid",
        "chain-info-theta", "chain-info-x", "contract-x", "contract-flux"])
def test_config_values_a_command_does_not_read_are_checked(tmp_path, command, keys, error_name):
    # each of these used to exit 0 and write its output
    cfg = write_config(tmp_path / "cfg.json", **{"generator": SYM, "rho": [0.7, 0.3], **keys})
    code, out = run(tmp_path, command, cfg)
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == error_name
    assert next(iter(keys)) in error["message"]
    assert error["config_hash"] is None
    assert not (out / f"{command}.json").exists()


def test_env_seed_is_checked(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json", generator=SYM, rho=[0.7, 0.3])
    monkeypatch.setenv(cli.SEED_ENV, "-1")
    code, out = run(tmp_path, "rates", cfg)
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert "seed" in error["message"] and error["config_hash"] is None


def test_rates_reports_all_requested_functionals(tmp_path):
    import bridgerates as br

    cfg = write_config(
        tmp_path / "cfg.json",
        generator=SYM,
        t0=0.5,
        rho=[0.7, 0.3],
        flux=[[0.0, 1.0], [1.0, 0.0]],
        theta=[[0.25, 0.25], [0.25, 0.25]],
    )
    code, out = run(tmp_path, "rates", cfg)
    assert code == 0
    payload = json.loads((out / "rates.json").read_text())
    assert payload["dvg"]["value"] == pytest.approx(0.08348486100883201, abs=1e-9)

    Q = br.validate_generator(SYM)
    rho = br.ProbVector(np.array([0.7, 0.3]))
    j = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert payload["bfg"]["value"] == pytest.approx(br.bfg_rate(rho, j, Q))
    theta = br.PairMeasure(np.full((2, 2), 0.25))
    P = br.transition_at(Q, 0.5)
    assert payload["pair"]["value"] == pytest.approx(br.pair_empirical_rate(theta, P))

    csv_lines = (out / "rates.csv").read_text().splitlines()
    assert csv_lines[0] == "metric,value,config_hash,seed"
    metrics = {line.split(",")[0] for line in csv_lines[1:]}
    assert "dvg.value" in metrics and "bfg.value" in metrics


@pytest.mark.parametrize("mode, d", [("occupation", 2), ("flux", 6)], ids=["occupation", "flux"])
def test_bridge_sample_single_pair(tmp_path, mode, d):
    cfg = write_config(
        tmp_path / "cfg.json",
        generator=SYM,
        t0=0.5,
        mode=mode,
        n_samples=300,
        x=0,
        y=1,
    )
    code, out = run(tmp_path, "bridge-sample", cfg)
    assert code == 0
    payload = json.loads((out / "bridge-sample.json").read_text())
    assert payload["mode"] == mode
    assert len(payload["pairs"]) == 1
    entry = payload["pairs"][0]
    assert entry["x"] == 0 and entry["y"] == 1
    assert entry["n_samples"] == 300 and entry["d"] == d
    assert sum(entry["mean"][:2]) == pytest.approx(1.0)
    dump = out / entry["file"]
    samples = load_samples(dump)
    assert samples.shape == (300, d)
    np.testing.assert_allclose(samples[:, :2].sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(samples.mean(axis=0), entry["mean"], rtol=0.0, atol=1e-12)
    if mode == "flux":
        assert np.all(samples[:, [2, 5]] == 0.0)  # jumps 0 -> 0 and 1 -> 1


@pytest.mark.parametrize("endpoint", ["x", "y"])
def test_bridge_sample_needs_both_endpoints(tmp_path, endpoint):
    cfg = write_config(tmp_path / "cfg.json", generator=SYM, t0=0.5, n_samples=100,
                       **{endpoint: 0})
    code, out = run(tmp_path, "bridge-sample", cfg)
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ValueError"
    assert "both 'x' and 'y'" in error["message"]
    assert not (out / "bridge-sample.json").exists()
    assert not list(out.glob("*.f64"))


def test_infconv_occupation_small(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        generator=SYM,
        t0=0.5,
        mode="occupation",
        n_samples=1500,
        rho=[0.7, 0.3],
        seed=11,
    )
    code, out = run(tmp_path, "infconv", cfg)
    assert code == 0
    payload = json.loads((out / "infconv.json").read_text())
    assert payload["feasible"] is True
    assert payload["reference"] == pytest.approx(0.08348486100883201, abs=1e-9)
    assert payload["abs_error"] < 0.05
    assert payload["value_per_time"] == pytest.approx(payload["value_per_window"] / 0.5)
    theta = np.array(payload["theta"])
    assert theta.shape == (2, 2)
    assert theta.sum() == pytest.approx(1.0)


def test_infconv_flux_mode_requires_flux_target(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        generator=SYM,
        mode="flux",
        n_samples=200,
        rho=[0.5, 0.5],
    )
    code, out = run(tmp_path, "infconv", cfg)
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert "flux" in error["message"]


def test_contract_matches_direct_rate(tmp_path):
    cfg = write_config(
        tmp_path / "cfg.json",
        generator=[[-2.0, 2.0], [1.0, -1.0]],
        rho=[0.6, 0.4],
    )
    code, out = run(tmp_path, "contract", cfg)
    assert code == 0
    payload = json.loads((out / "contract.json").read_text())
    assert payload["abs_error"] < 1e-6
    assert payload["gap"] < 1e-6
    flux = np.array(payload["flux"])
    assert flux.shape == (2, 2)


def test_mc_verify_reports_certified_reference(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", generator=SYM, rho=[0.7, 0.3], epsilon=0.05,
                       n_grid=[10, 20, 30], n_paths=20_000, seed=1)
    code, out = run(tmp_path, "mc-verify", cfg)
    assert code == 0
    payload = json.loads((out / "mc-verify.json").read_text())
    # closed form (sqrt(0.675) - sqrt(0.325))^2 at the ball point nearest pi
    assert payload["reference"] == pytest.approx((0.675**0.5 - 0.325**0.5) ** 2, rel=1e-12)
    assert payload["reference_gap"] <= 1e-10
    assert payload["reference_iterations"] >= 1
    assert payload["rel_error"] == pytest.approx(
        abs(payload["slope"] - payload["reference"]) / payload["reference"], rel=1e-12)


@pytest.mark.parametrize("reference", [0.0, -0.5, "inf", "nan", "0.07", True])
def test_mc_verify_rejects_bad_config_reference(tmp_path, reference):
    # the ball rate is always computed, so a supplied reference is an
    # unknown key, whatever its value
    value = float(reference) if reference in ("inf", "nan") else reference
    (tmp_path / "cfg.json").write_text(
        json.dumps({"generator": SYM, "rho": [0.7, 0.3], "n_grid": [6, 10], "n_paths": 4000,
                    "reference": value}), encoding="utf-8")
    code, out = run(tmp_path, "mc-verify", str(tmp_path / "cfg.json"))
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ValueError"
    assert error["message"] == "unknown config keys: reference"


def test_infconv_with_infinite_window_fails_typed(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", generator=SYM, t0=math.inf, n_samples=100,
                       rho=[0.7, 0.3])
    assert "Infinity" in (tmp_path / "cfg.json").read_text()
    code, out = run(tmp_path, "infconv", cfg)
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert error["error"] == "ChainError"
    assert "finite" in error["message"]


def test_mc_verify_needs_grid(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", generator=SYM, rho=[0.7, 0.3])
    code, out = run(tmp_path, "mc-verify", cfg)
    assert code == 1
    error = json.loads((out / "error.json").read_text())
    assert "n_grid" in error["message"]


# Runs in a fresh interpreter: which heavy scipy submodules are loaded after
# importing the CLI, after it has computed rates, and after the contraction.
NO_SCIPY_CHILD = r"""
import json, sys
heavy = ("scipy.special", "scipy.linalg", "scipy.optimize")
import bridgerates.cli as cli
after_import = [m for m in heavy if m in sys.modules]
code = cli.main(["rates", "--config", sys.argv[1], "--out", sys.argv[2]])
after_rates = [m for m in heavy if m in sys.modules]
code_contract = cli.main(["contract", "--config", sys.argv[1], "--out", sys.argv[2]])
print(json.dumps([after_import, code, after_rates, code_contract, [m for m in heavy if m in sys.modules]]))
"""


def test_cli_rates_loads_no_scipy_submodule(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_CHILD,
         str(REPO / "scripts" / "configs" / "boundary_rates.json"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    after_import, code, after_rates, code_contract, after_contract = json.loads(
        done.stdout.strip().splitlines()[-1])
    assert code == 0
    assert after_import == []
    assert after_rates == []
    assert code_contract == 0
    assert after_contract == []


# Runs in a fresh interpreter in which scipy cannot be imported: every
# command the CLI runs here must finish without it and load none of it.
SCIPY_BLOCKED_CHILD = r"""
import json, sys
sys.modules["scipy"] = None
import bridgerates.cli as cli
codes = [cli.main([command, "--config", config, "--out", sys.argv[3]])
         for command, config in (("mc-verify", sys.argv[1]), ("rates", sys.argv[2]),
                                 ("contract", sys.argv[2]))]
loaded = [name for name, module in sys.modules.items()
          if module is not None and (name == "scipy" or name.startswith("scipy."))]
print(json.dumps([codes, loaded]))
"""


def test_cli_runs_without_scipy(tmp_path):
    mc_config = write_config(tmp_path / "mc.json", generator=SYM, rho=[0.7, 0.3], epsilon=0.05,
                             n_grid=[10, 20, 30], n_paths=20_000, seed=1)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_CHILD, mc_config,
         str(REPO / "scripts" / "configs" / "boundary_rates.json"), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    codes, loaded = json.loads(done.stdout.strip().splitlines()[-1])
    assert codes == [0, 0, 0]
    assert loaded == []


# Runs in a fresh interpreter: the minor page faults of the last of three
# identical infconv calls, each into its own output directory.
REPEAT_FAULTS_CHILD = r"""
import resource, sys
import bridgerates.cli as cli
faults = []
for k in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(["infconv", "--config", sys.argv[1], "--out", f"{sys.argv[2]}/{k}"]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults[-1])
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"), reason="needs glibc's mallopt")
def test_repeated_main_calls_reuse_the_heap(tmp_path):
    # without fixed malloc thresholds the heap top is trimmed after each call
    # and faulted back in by the next, about 170 pages for this config
    cfg = write_config(tmp_path / "cfg.json", generator=SYM, t0=0.5, mode="occupation",
                       n_samples=8000, rho=[0.7, 0.3], seed=3)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", REPEAT_FAULTS_CHILD, cfg, str(tmp_path / "out")],
                          capture_output=True, text=True, env=env, timeout=120, check=True)
    assert int(done.stdout.strip().splitlines()[-1]) <= 40
