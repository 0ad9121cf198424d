"""Problem-file loading, schema validation and the command line."""

import copy
import importlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lognorm_control
from conftest import OSCILLATOR_CONFIG, plant8_config
from lognorm_control import cli, config
from lognorm_control.cli import main
from lognorm_control.config import (
    CONFIG_SCHEMA,
    ConfigError,
    gamma_rule,
    load_config,
    serialize_config,
)
from lognorm_control.presets import example_config
from lognorm_control.report import dumps
from lognorm_control.sim import simulate
from lognorm_control.synthesis import (
    AutoGamma,
    ExplicitGamma,
    synthesize,
    verify_c3,
)

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs"


@pytest.fixture()
def cfg():
    return example_config()


@pytest.fixture()
def cfg_file(tmp_path, cfg):
    p = tmp_path / "example.json"
    p.write_text(json.dumps(cfg))
    return p


@pytest.fixture()
def plant_file(tmp_path, cfg):
    del cfg["controller"]
    p = tmp_path / "plant.json"
    p.write_text(json.dumps(cfg))
    return p


# ---------------------------------------------------------------------------
# loading and validation

def test_load_example_config(cfg):
    lc = load_config(cfg)
    assert lc.horizon == 10.0 and lc.tol == 1e-8
    assert lc.spec.n == 2 and lc.spec.norm == "two"
    assert np.allclose(lc.controller.lam, [-1.0, -1.0])
    assert isinstance(lc.controller.rule, ExplicitGamma)


def test_load_config_from_path(cfg_file):
    lc = load_config(cfg_file)
    assert lc.spec.n == 2
    assert lc.spec.omega is not None


def test_config_round_trip(cfg):
    lc = load_config(cfg)
    ctrl = synthesize(lc.spec, lam=lc.controller.lam, rule=lc.controller.rule)
    doc = serialize_config(lc.spec, ctrl, horizon=lc.horizon, tol=lc.tol)
    lc2 = load_config(doc)
    assert doc["horizon"] == 10.0 and doc["tol"] == 1e-8
    for t in (0.0, 0.7, 3.0):
        assert np.array_equal(lc2.spec.A(t), lc.spec.A(t))
        assert np.array_equal(lc2.spec.Delta(t), lc.spec.Delta(t))


@pytest.mark.parametrize("request_, written", [
    ({"gamma": "auto", "margin": 2.5}, {"gamma": "auto", "margin": 2.5}),
    ({"lambda": [-1.0, -2.0]}, {"lambda": [-1.0, -2.0], "gamma": "auto"}),
    ({"lambda": [-1.0, -1.0], "gamma": ["-t", "-2.5"]},
     {"lambda": [-1.0, -1.0], "gamma": ["-t", "-2.5"]})])
def test_config_round_trip_of_a_controller_request(cfg, request_, written):
    # an unsynthesized request serializes as the request, not as a gain
    cfg["controller"] = request_
    lc = load_config(cfg)
    doc = serialize_config(lc.spec, lc.controller)
    assert doc["controller"] == written
    back = load_config(doc).controller
    assert back.rule == lc.controller.rule
    assert (back.lam is None and lc.controller.lam is None
            or np.array_equal(back.lam, lc.controller.lam))


def test_schema_rejects_unknown_key(cfg):
    cfg["mystery"] = 1
    with pytest.raises(ConfigError, match="config invalid at \\$"):
        load_config(cfg)


def test_schema_requires_plant(cfg):
    del cfg["A"]
    with pytest.raises(ConfigError, match="'A' is a required property"):
        load_config(cfg)


def test_schema_checks_norm_enum(cfg):
    cfg["norm"] = "three"
    with pytest.raises(ConfigError, match="norm"):
        load_config(cfg)


def test_dimension_mismatch_is_reported(cfg):
    cfg["x0"] = [1.0, 2.0, 3.0]
    with pytest.raises(ConfigError, match="x0 must have 2 entries, got 3"):
        load_config(cfg)


@pytest.mark.parametrize("key, value, message", [
    ("A", [["t", "1"]], "A must be 2x2 to match n=2"),
    ("Delta", [["1", "0"], ["0"]], "Delta must be 2x2 to match n=2"),
    ("B", np.eye(3).tolist(), "B must be 2x2 to match n=2, got (3, 3)"),
    ("omega", ["1"], "omega must have 2 entries, got 1"),
    ("controller", {"lambda": [-1.0]}, "controller.lambda must have 2 "
                                       "entries, got 1"),
    ("controller", {"gamma": ["-1", "-1", "-1"]},
     "controller.gamma must have 2 entries, got 3"),
    ("B", [[1.0, 0.0], [0.0]], "B must be 2x2 to match n=2")])
def test_shape_mismatch_is_reported(cfg, key, value, message):
    cfg[key] = value
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(cfg)


def test_expression_errors_carry_location(cfg):
    cfg["A"][0][0] = "t +"
    with pytest.raises(ConfigError,
                       match=r"A\[1\]\[1\]: unexpected end of input at "
                             r"offset 3"):
        load_config(cfg)


def test_plant_must_not_depend_on_state(cfg):
    cfg["A"][0][0] = "x1"
    with pytest.raises(ConfigError, match=r"A\[1\]\[1\]: unknown identifier"):
        load_config(cfg)


def test_margin_requires_auto_gamma(cfg):
    cfg["controller"]["margin"] = 2.0
    with pytest.raises(ConfigError, match="margin only applies"):
        load_config(cfg)


def test_gamma_rule():
    # one rule for the config, a --controller file and the flags
    assert gamma_rule({}, 2) == AutoGamma(1.0)
    assert gamma_rule({"gamma": "auto", "margin": 2}, 2) == AutoGamma(2.0)
    assert gamma_rule({"margin": 0.5}, 2) == AutoGamma(0.5)
    assert isinstance(gamma_rule({"gamma": ["-1", "-t"]}, 2), ExplicitGamma)
    with pytest.raises(ConfigError, match="--margin only applies"):
        gamma_rule({"gamma": ["-1", "-t"], "margin": 2}, 2, "--")
    with pytest.raises(ConfigError, match=r"gamma\[1\]: unknown identifier"):
        gamma_rule({"gamma": ["a", "-t"]}, 2)
    with pytest.raises(ConfigError, match="must be 'auto' or a list"):
        gamma_rule({"gamma": 1}, 2)


@pytest.mark.parametrize("horizon", [float("inf"), float("nan")])
def test_horizon_must_be_finite(cfg, horizon):
    cfg["horizon"] = horizon
    with pytest.raises(ConfigError, match="be finite"):
        load_config(cfg)


def test_load_skips_the_metaschema_check(cfg, monkeypatch):
    # the schema meets its metaschema (test_published_schema_matches_
    # embedded); a load only validates the doc
    checks = []
    validator_class = jsonschema.validators.validator_for(CONFIG_SCHEMA)
    monkeypatch.setattr(validator_class, "check_schema",
                        lambda *a, **k: checks.append(a))
    load_config(cfg)
    bad = copy.deepcopy(cfg)
    bad["n"] = "2"
    with pytest.raises(ConfigError):
        load_config(bad)
    assert checks == []


@pytest.mark.parametrize("key, value", [
    ("n", "2"), ("n", 17), ("x0", ["a"]), ("norm", "three"),
    ("A", [[1, 2], [3, 4]]), ("tol", 0), ("mystery", 1),
    ("controller", {"gamma": "x"}),
    ("controller", {"lambda": "x", "bogus": 1}), ("A", None)])
def test_schema_errors_match_jsonschema_validate(cfg, key, value):
    # the reported error is the one jsonschema.validate picks
    if value is None:
        del cfg[key]
    else:
        cfg[key] = value
    with pytest.raises(jsonschema.ValidationError) as want:
        jsonschema.validate(instance=cfg, schema=CONFIG_SCHEMA)
    with pytest.raises(ConfigError) as got:
        load_config(cfg)
    assert str(got.value) == (f"config invalid at {want.value.json_path}: "
                              f"{want.value.message}")


def test_published_schema_matches_embedded():
    with open(DOCS / "config.schema.json") as fh:
        assert json.load(fh) == CONFIG_SCHEMA
    jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(
        CONFIG_SCHEMA)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 20) | st.floats()
    | st.sampled_from(["auto", "one", "two", "inf", "t", "1"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["lambda", "gamma", "margin", "x"]), inner,
        max_size=3),
    max_leaves=8)


@given(key=st.sampled_from(sorted(CONFIG_SCHEMA["properties"])
                           + ["controller.lambda", "controller.gamma",
                              "controller.margin", "controller.x", "x"]),
       value=_json_values | st.just(KeyError))
def test_plain_check_accepts_only_what_the_schema_accepts(key, value):
    # load_config asks jsonschema only about documents the hand check
    # does not pass, so the hand check must never pass one it rejects
    doc = example_config()
    where, _, key = key.rpartition(".")
    target = doc[where] if where else doc
    if value is KeyError:
        target.pop(key, None)
    else:
        target[key] = value
    if config._plainly_valid(doc):
        jsonschema.validate(doc, CONFIG_SCHEMA)


# the keys of test_plain_check_accepts_only_what_the_schema_accepts, and a
# second unknown key at each level, so that two can be unexpected at once
_DOC_KEYS = (sorted(CONFIG_SCHEMA["properties"])
             + ["controller.lambda", "controller.gamma", "controller.margin",
                "controller.x", "x", "controller.y", "y"])
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


def _best_match_text(doc):
    """The text of jsonschema.validate's error for ``doc``, or None."""
    exc = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(doc))
    return exc and f"config invalid at {exc.json_path}: {exc.message}"


@settings(max_examples=500)
@given(edits=st.lists(st.tuples(st.sampled_from(_DOC_KEYS),
                                _json_values | st.just(KeyError)),
                      min_size=1, max_size=3),
       float_n=st.booleans())
def test_schema_walk_words_the_error_jsonschema_picks(edits, float_n):
    # jsonschema is the oracle: the walk accepts what it accepts and
    # reports the error its best_match picks
    doc = example_config()
    if float_n:
        doc["n"] = 2.0  # an integer to JSON Schema
    for key, value in edits:
        where, _, key = key.rpartition(".")
        target = doc.get(where) if where else doc
        if not isinstance(target, dict):  # the section was replaced
            continue
        if value is KeyError:
            target.pop(key, None)
        else:
            target[key] = value
    want = _best_match_text(doc)
    assert config._plainly_valid(doc) == (want is None)
    try:
        load_config(doc)
        got = None
    except ConfigError as exc:
        got = str(exc)
    if want is None:
        assert got is None or not got.startswith("config invalid at")
    else:
        assert got == want


def test_schema_error_names_unexpected_keys_in_order(cfg):
    cfg.update(zeta=1, alpha=2)
    with pytest.raises(ConfigError) as got:
        load_config(cfg)
    assert str(got.value) == _best_match_text(cfg) == (
        "config invalid at $: Additional properties are not allowed "
        "('alpha', 'zeta' were unexpected)")


def test_valid_configs_load_without_jsonschema():
    for doc in (example_config(), OSCILLATOR_CONFIG, plant8_config()):
        assert config._plainly_valid(doc)
    code = ("import sys, lognorm_control as lc; "
            "lc.load_config(lc.presets.example_config()); "
            "print('jsonschema' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.strip() == "False", done.stderr


def test_schema_errors_exit_without_importing_jsonschema(cfg, tmp_path):
    cfg["controller"]["gamma"] = [1, "t"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = ("import sys; from lognorm_control.cli import main; "
            "rc = main(['classify', '--config', sys.argv[1]]); "
            "print(rc, 'jsonschema' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.split() == ["2", "False"], done.stderr
    assert done.stderr == f"error: {_best_match_text(cfg)}\n" == (
        "error: config invalid at $.controller.gamma[0]: "
        "1 is not of type 'string'\n")


# ---------------------------------------------------------------------------
# subcommands (in process; one smoke test exercises the installed script)

def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_cli_lognorm_golden(capsys):
    rc, out, _ = run_cli(capsys, "lognorm", "[[-11,10],[2,-3]]")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "mu_1=7 mu_2=0.211102550928 mu_inf=-1"
    assert lines[1].startswith("norm_1=13 norm_2=15.27")


def test_cli_lognorm_single_norm(capsys):
    rc, out, _ = run_cli(capsys, "lognorm", "[[-11,10],[2,-3]]",
                         "--norm", "one")
    assert rc == 0
    assert out.strip() == "mu_one=7 norm_one=13"


def test_cli_lognorm_reads_matrix_file(capsys, tmp_path):
    p = tmp_path / "m.json"
    p.write_text("[[-1, 3], [-3, -2]]")
    rc, out, _ = run_cli(capsys, "lognorm", str(p))
    assert rc == 0
    assert out.splitlines()[0] == "mu_1=2 mu_2=-1 mu_inf=2"


def test_cli_lognorm_rejects_nonsquare(capsys):
    rc, _, err = run_cli(capsys, "lognorm", "[[1,2,3],[4,5,6]]")
    assert rc == 2
    assert "square" in err


@pytest.mark.parametrize("matrix", ["[[1,2],[3]]", '[[1,2],[3,"a"]]',
                                    "[[1,2],[3,{}]]"])
def test_cli_lognorm_rejects_ragged_or_non_numeric_matrices(capsys, matrix):
    rc, _, err = run_cli(capsys, "lognorm", matrix)
    assert rc == 2
    assert err == "error: matrix must be a square array of numbers\n"


def test_cli_deep_nesting_is_an_input_error(capsys, cfg, tmp_path):
    cfg["A"][0][0] = "-" * 3000 + "t"
    p = tmp_path / "deep.json"
    p.write_text(json.dumps(cfg))
    rc, _, err = run_cli(capsys, "classify", "--config", str(p))
    assert rc == 2
    assert err.startswith("error: A[1][1]: expression too deeply nested at "
                          "offset 100")


def test_cli_long_chain_is_an_input_error(capsys, cfg, tmp_path):
    # a + b + c is (a + b) + c, so a flat chain nests as deep as it is
    # long; 1,000 terms used to exhaust the stack (RecursionError)
    cfg["A"][0][0] = "+".join(["t"] * 1000)
    p = tmp_path / "chain.json"
    p.write_text(json.dumps(cfg))
    rc, _, err = run_cli(capsys, "classify", "--config", str(p))
    assert rc == 2
    assert err.startswith("error: A[1][1]: expression too deeply nested at "
                          "offset 200")


def test_cli_lognorm_rejects_bad_json(capsys):
    rc, _, err = run_cli(capsys, "lognorm", "[[1,2")
    assert rc == 2
    assert err.startswith("error:")


def test_cli_classify_example(capsys, cfg_file):
    rc, out, _ = run_cli(capsys, "classify", "--config", str(cfg_file))
    d = json.loads(out)
    assert rc == 0
    assert d["strongest"] == "UAS"
    assert d["entries"]["UAS"]["measured"]["alpha"] == 1.0
    assert d["A1"]["verdict"] == "supported"


def test_cli_classify_unstable_exits_one(capsys, tmp_path):
    doc = {"n": 2, "t0": 0.0, "x0": [1.0, 1.0],
           "A": [["1", "0"], ["0", "1"]],
           "B": [[1.0, 0.0], [0.0, 1.0]]}
    p = tmp_path / "u.json"
    p.write_text(json.dumps(doc))
    rc, out, _ = run_cli(capsys, "classify", "--config", str(p))
    assert rc == 1
    assert json.loads(out)["strongest"] == "UNSTABLE"


def test_cli_classify_norm_override(capsys, plant_file):
    rc, out, _ = run_cli(capsys, "classify", "--config", str(plant_file),
                         "--norm", "one")
    d = json.loads(out)
    assert rc == 1
    assert d["norm"] == "one" and d["strongest"] is None


def test_cli_classify_inline_controller(capsys, plant_file):
    rc, out, _ = run_cli(capsys, "classify", "--config", str(plant_file),
                         "--lambda=-1,-1",
                         "--gamma=-t*(t^6+1)^(1/2)",
                         "--gamma=-t^(1/2)*(t^6+1)^(1/2)")
    assert rc == 0
    assert json.loads(out)["strongest"] == "UAS"


def test_cli_classify_requires_config():
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2


def test_cli_synthesize_reports_conditions(capsys, plant_file):
    rc, out, _ = run_cli(capsys, "synthesize", "--config", str(plant_file),
                         "--gamma", "auto")
    d = json.loads(out)
    assert rc == 0
    assert sorted(d.keys()) == ["B_inv", "adaptive_part", "c1", "c2", "c3",
                                "gamma", "lambda"]
    for cid in ("c1", "c2", "c3"):
        assert d[cid]["verdict"] == "supported"
    assert len(d["B_inv"]) == len(d["adaptive_part"]) == len(d["gamma"]) == 2


def test_cli_synthesize_exit_one_when_refuted(capsys, tmp_path):
    doc = {"n": 2, "t0": 0.0, "x0": [1.0, 1.0],
           "A": [["0", "0"], ["0", "0"]],
           "B": [[1.0, 0.0], [0.0, 1.0]],
           "omega": ["t^2", "0"], "omega_bound": "t^2",
           "controller": {"lambda": [-1.0, -1.0], "gamma": ["-1", "-1"]}}
    p = tmp_path / "r.json"
    p.write_text(json.dumps(doc))
    rc, out, _ = run_cli(capsys, "synthesize", "--config", str(p))
    d = json.loads(out)
    assert rc == 1
    assert d["c2"]["verdict"] == "refuted"


def test_cli_synthesize_requires_a_controller(capsys, plant_file):
    rc, out, err = run_cli(capsys, "synthesize", "--config", str(plant_file))
    assert (rc, out) == (2, "")
    assert err.startswith("error: no controller requested")


def test_cli_lambda_flag_keeps_the_config_gamma_rule(capsys, cfg_file):
    _, plain, _ = run_cli(capsys, "synthesize", "--config", str(cfg_file))
    rc, out, _ = run_cli(capsys, "synthesize", "--config", str(cfg_file),
                         "--lambda=-2,-3")
    d = json.loads(out)
    assert rc == 0
    assert d["lambda"] == [-2.0, -3.0] != json.loads(plain)["lambda"]
    assert d["gamma"] == json.loads(plain)["gamma"]


def test_cli_reports_are_strict_json(capsys, cfg, tmp_path):
    # with omega = 0 and an envelope undefined past t = 400, C2's ratio_end
    # is inf; a non-finite number prints as null, not as Infinity or NaN
    cfg.update(omega=["0", "0"], omega_bound="sqrt(400-t)")
    p = tmp_path / "envelope.json"
    p.write_text(json.dumps(cfg))
    rc, out, _ = run_cli(capsys, "synthesize", "--config", str(p))
    assert rc == 0

    def reject(name):
        raise AssertionError(f"{name} is not JSON")
    d = json.loads(out, parse_constant=reject)
    assert d["c2"]["verdict"] == "inconclusive"
    assert d["c2"]["measured"]["ratio_end"] is None
    assert dumps({"v": [float("nan"), 1.5, (float("-inf"),)]}) == json.dumps(
        {"v": [None, 1.5, [None]]}, indent=2)


@pytest.mark.parametrize("flags, message", [
    (["--gamma", "auto", "--margin=0"], "margin must be a positive"),
    (["--margin=0"], "margin must be a positive"),
    (["--margin=-1"], "margin must be a positive"),
    (["--gamma=-1", "--gamma=-t", "--margin=5"],
     "--margin only applies to gamma='auto'")])
def test_cli_rejects_bad_margin_flags(capsys, cfg_file, flags, message):
    rc, out, err = run_cli(capsys, "synthesize", "--config", str(cfg_file),
                           *flags)
    assert rc == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("doc, flags", [
    ({"gamma": "auto"}, ["--gamma", "auto"]),
    ({"gamma": "auto", "margin": 2}, ["--gamma", "auto", "--margin", "2"]),
    ({"margin": 2}, ["--margin", "2"])])
def test_cli_controller_file_reads_auto_gamma(capsys, plant_file, tmp_path,
                                              doc, flags):
    ctl = tmp_path / "ctl.json"
    ctl.write_text(json.dumps(doc))
    rc, from_file, _ = run_cli(capsys, "synthesize", "--config",
                               str(plant_file), "--controller", str(ctl))
    assert rc == 0
    rc, from_flags, _ = run_cli(capsys, "synthesize", "--config",
                                str(plant_file), *flags)
    assert rc == 0
    assert json.loads(from_file)["gamma"] == json.loads(from_flags)["gamma"]


def test_cli_controller_file_margin_requires_auto_gamma(capsys, plant_file,
                                                        tmp_path):
    ctl = tmp_path / "ctl.json"
    ctl.write_text(json.dumps({"gamma": ["-1", "-1"], "margin": 2}))
    rc, _, err = run_cli(capsys, "synthesize", "--config", str(plant_file),
                         "--controller", str(ctl))
    assert rc == 2
    assert "margin only applies" in err


@pytest.mark.parametrize("doc, what", [
    (None, "JSON object"), (5, "JSON object"), ("lambda", "JSON object"),
    ([], "JSON object"), ({"lambda": {"a": 1}}, "'lambda'"),
    ({"margin": "2"}, "'margin'"), ({"margin": True}, "'margin'"),
    ({"gamma": "fast"}, "'gamma'")])
def test_cli_controller_file_is_checked_as_a_controller_section(
        capsys, cfg_file, tmp_path, doc, what):
    ctl = tmp_path / "ctl.json"
    ctl.write_text(json.dumps(doc))
    rc, out, err = run_cli(capsys, "synthesize", "--config", str(cfg_file),
                           "--controller", str(ctl))
    assert (rc, out) == (2, "")
    assert err.startswith("error: --controller file") and what in err


def test_cli_controller_file_nan_margin_fails_as_in_a_config(
        capsys, plant_file, tmp_path):
    # NaN is a number that no bound excludes, so the schema passes it in a
    # --controller file as in a config; the gain synthesis rejects it
    ctl = tmp_path / "ctl.json"
    ctl.write_text(json.dumps({"margin": float("nan")}))
    cfg = json.loads(plant_file.read_text())
    cfg["controller"] = {"margin": float("nan")}
    cfg_file = tmp_path / "nan.json"
    cfg_file.write_text(json.dumps(cfg))
    for argv in (["--config", str(plant_file), "--controller", str(ctl)],
                 ["--config", str(cfg_file)]):
        rc, out, err = run_cli(capsys, "synthesize", *argv)
        assert (rc, out, err) == (
            2, "", "error: margin must be a positive finite number\n")


@pytest.mark.parametrize("flag, message", [
    ("--controller", "controller.lambda must have 2 entries, got 1"),
    ("--lambda", "--lambda must have 2 entries, got 1")])
def test_cli_lambda_length_is_worded_as_in_a_config(capsys, plant_file,
                                                    tmp_path, flag, message):
    ctl = tmp_path / "ctl.json"
    ctl.write_text(json.dumps({"lambda": [-1.0]}))
    value = str(ctl) if flag == "--controller" else "-1"
    rc, out, err = run_cli(capsys, "synthesize", "--config", str(plant_file),
                           f"{flag}={value}")
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_cli_controller_file_round_trip(capsys, plant_file, tmp_path):
    rc, out, _ = run_cli(capsys, "synthesize", "--config", str(plant_file),
                         "--gamma", "auto")
    assert rc == 0
    ctl = tmp_path / "ctl.json"
    ctl.write_text(out)
    rc, out, _ = run_cli(capsys, "classify", "--config", str(plant_file),
                         "--controller", str(ctl))
    assert rc == 0
    assert json.loads(out)["strongest"] == "UAS"


def test_cli_simulate_writes_csv(capsys, cfg_file, tmp_path):
    out_csv = tmp_path / "trace.csv"
    rc, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_file),
                         "--points", "11", "--out", str(out_csv))
    d = json.loads(out)
    assert rc == 0
    assert d["final_norm"] == pytest.approx(0.05614105, abs=1e-6)
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,x_1,x_2,norm_x,mu_cl,bound_upper,bound_lower"
    assert len(lines) == 12


def test_cli_simulate_tol_reaches_simulate(capsys, cfg, cfg_file):
    rc, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_file),
                         "--points", "11", "--tol", "1e-5")
    assert rc == 0
    lc = load_config(cfg)
    ctrl = lc.controller.build(lc.spec)
    want = simulate(lc.spec, ctrl, T=lc.horizon, tol=1e-5, n_out=11)
    assert want.n_rejected != simulate(lc.spec, ctrl, T=lc.horizon,
                                       n_out=11).n_rejected
    d = json.loads(out)
    assert (d["steps"], d["rejected"]) == (len(want.step_sizes),
                                          want.n_rejected)


def test_cli_simulate_stiffness_exits_three(capsys, tmp_path):
    # the oscillator's steps fail the error test at h_min = 0.02
    p = tmp_path / "oscillator.json"
    p.write_text(json.dumps(OSCILLATOR_CONFIG))
    rc, _, err = run_cli(capsys, "simulate", "--config", str(p),
                         "--h-min", "0.02")
    assert rc == 3
    assert "step size pinned at h=0.02" in err and "near t=" in err


def test_cli_simulate_stiff_long_horizon(capsys, cfg_file):
    # the input that used to exit 3: RODAS4 takes the stiff tail
    rc, out, _ = run_cli(capsys, "simulate", "--config", str(cfg_file),
                         "--horizon", "50", "--h-min", "1e-3")
    assert rc == 0
    assert json.loads(out)["steps"] < 2000


def test_cli_verify_example(capsys, cfg_file):
    rc, out, _ = run_cli(capsys, "verify", "--config", str(cfg_file))
    d = json.loads(out)
    assert rc == 0
    assert d["sandwich"]["passed"] is True
    assert d["sandwich"]["worst_upper_margin"] > 0.0
    for cid in ("A1", "A2", "A3", "A4", "C3"):
        assert d[cid]["verdict"] == "supported"
    assert d["phi_horizon"] == pytest.approx(2.148151, abs=1e-5)


def test_cli_verify_caps_phi_below_one_percent_of_the_horizon(capsys,
                                                             tmp_path, cfg):
    # the disturbance ladder's s = 1e6 rung: gamma "auto" grows with the
    # envelope, so |int mu| reaches the cap near t = 1e-5, far below 1 %
    # of the horizon, where Phi would be numerically singular
    cfg["controller"] = {"lambda": [-1.0, -1.0], "gamma": "auto",
                         "margin": 1.0}
    cfg["omega"] = [f"1e6*({e})" for e in cfg["omega"]]
    cfg["omega_bound"] = f"1e6*({cfg['omega_bound']})"
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(cfg))
    rc, out, _ = run_cli(capsys, "verify", "--config", str(path))
    d = json.loads(out)
    assert rc == 0 and d["sandwich"]["passed"] is True
    assert d["phi_horizon"] == pytest.approx(1.0377e-5, rel=1e-4)


def test_cli_verify_on_a_horizon_below_one_sub_step(capsys, cfg_file):
    # Phi's cells are 5e-12 long, far below its largest sub-step
    rc, out, _ = run_cli(capsys, "verify", "--config", str(cfg_file),
                         "--horizon", "1e-9")
    d = json.loads(out)
    assert d["phi_horizon"] == 1e-9 and d["sandwich"]["passed"] is True
    verdicts = {d[cid]["verdict"] for cid in ("A1", "A2", "A3", "A4", "C3")}
    assert rc == (0 if verdicts == {"supported"} else 1)


def test_cli_verify_quad_tol_reaches_c3(capsys, cfg, cfg_file):
    rc, out, _ = run_cli(capsys, "verify", "--config", str(cfg_file),
                         "--quad-tol", "1e-4")
    lc = load_config(cfg)
    ctrl = lc.controller.build(lc.spec)
    want = verify_c3(ctrl, lc.horizon, 1e-4).measured["quad_error"]
    assert want != verify_c3(ctrl, lc.horizon).measured["quad_error"]
    assert json.loads(out)["C3"]["measured"]["quad_error"] == want


@pytest.mark.parametrize("argv, message", [
    (["classify", "--quad-tol", "0"], "tol must be a positive finite"),
    (["verify", "--quad-tol", "-1"], "tol must be a positive finite"),
    (["classify", "--horizon", "inf"], "--horizon must be finite")])
def test_cli_rejects_bad_tolerance_and_horizon(capsys, cfg_file, argv,
                                               message):
    rc, out, err = run_cli(capsys, argv[0], "--config", str(cfg_file),
                           *argv[1:])
    assert rc == 2 and out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("command", ["synthesize", "classify", "simulate",
                                     "verify"])
def test_cli_rejects_a_horizon_too_close_to_t0(capsys, cfg_file, tmp_path,
                                               command):
    # a subnormal span cannot hold the commands' grids: the horizon check
    # says so, not a grid deep inside a command
    extra = ["--out", str(tmp_path / "x.csv")] if command == "simulate" else []
    rc, out, err = run_cli(capsys, command, "--config", str(cfg_file),
                           "--horizon", "5e-324", *extra)
    assert (rc, out) == (2, "")
    assert err == ("error: --horizon must exceed t0=0.0 by 1024 normal "
                   "floating-point steps of 4 ulps, got 5e-324\n")


@pytest.mark.parametrize("t0, horizon", [(0.0, 5e-324), (1e6, 1e6 + 1e-9)])
def test_config_rejects_a_horizon_too_close_to_t0(cfg, t0, horizon):
    # a subnormal span, and one below the spacing of floats near t0
    cfg["t0"], cfg["horizon"] = t0, horizon
    with pytest.raises(ConfigError) as exc:
        load_config(cfg)
    assert str(exc.value) == (f"horizon must exceed t0={t0} by 1024 normal "
                              "floating-point steps of 4 ulps, got "
                              f"{horizon!r}")


@pytest.mark.parametrize("command", ["synthesize", "classify", "verify"])
def test_cli_runs_on_a_tiny_normal_horizon(capsys, cfg_file, command):
    rc, out, err = run_cli(capsys, command, "--config", str(cfg_file),
                           "--horizon", "1e-300")
    assert (rc, err) == (0, "") and json.loads(out)


@pytest.mark.parametrize("horizon", ["1e-200", "1e-300"])
def test_cli_simulate_fits_a_rate_on_a_tiny_horizon(capsys, cfg_file,
                                                    horizon):
    # the rate's least-squares fit squares the times: scaled by a power of
    # two first, they do not underflow to a singular fit
    rc, out, err = run_cli(capsys, "simulate", "--config", str(cfg_file),
                           "--horizon", horizon, "--points", "11")
    assert (rc, err) == (0, "")
    assert np.isfinite(json.loads(out)["fitted_rate"])


def test_cli_simulate_rejects_more_points_than_the_horizon_resolves(
        capsys, cfg, tmp_path):
    # 100,000 steps of 1e-11 near 1e6 are below the spacing of floats
    # there: the horizon rule names --points, not a grid error in simulate
    cfg["t0"], cfg["horizon"] = 1e6, 1e6 + 10.0
    p = tmp_path / "late.json"
    p.write_text(json.dumps(cfg))
    rc, out, err = run_cli(capsys, "simulate", "--config", str(p),
                           "--horizon", "1000000.000001", "--points", "100001")
    assert (rc, out) == (2, "")
    assert err == ("error: the horizon of --points 100001 must exceed "
                   "t0=1000000.0 by 100000 normal floating-point steps of 4 "
                   "ulps, got 1000000.000001\n")


def test_cli_verify_rejects_quad_tol_before_phi(capsys, cfg_file,
                                                monkeypatch):
    # a bad --quad-tol fails at once, not after the whole Phi integration
    def no_phi(*args, **kwargs):
        raise AssertionError("fundamental_matrix was called")
    monkeypatch.setattr(cli, "fundamental_matrix", no_phi)
    for bad in ("-1", "0", "nan", "inf"):
        rc, out, err = run_cli(capsys, "verify", "--config", str(cfg_file),
                               "--quad-tol", bad)
        assert (rc, out) == (2, "")
        assert err.startswith("error: tol must be a positive finite number")


def test_cli_verify_requires_controller(capsys, plant_file):
    rc, _, err = run_cli(capsys, "verify", "--config", str(plant_file))
    assert rc == 2
    assert "requires a controller" in err


def test_cli_verify_has_no_tol_flag(capsys, cfg_file):
    # Phi is always built to PHI_TOL; --tol sets only the simulate tolerance
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(cfg_file), "--tol", "1e-6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_cli_verify_names_the_time_the_loop_fails(capsys, tmp_path):
    # A, hence the closed loop, exists only on [0, 0.05]: the first
    # quadrature of verify fails there, and names the earliest failing
    # time of its failing batch, with the exit code simulate gives
    p = tmp_path / "short.json"
    p.write_text(json.dumps({
        "n": 2, "t0": 0.0, "x0": [1.0, -0.5], "norm": "two",
        "A": [["sqrt(0.05-t)", "1"], ["0", "-1"]],
        "B": [[1.0, 0.0], [0.0, 1.0]],
        "controller": {"lambda": [-1.0, -1.0], "gamma": "auto"},
        "horizon": 1.0, "tol": 1e-8}))
    rc, out, err = run_cli(capsys, "verify", "--config", str(p))
    assert (rc, out) == (3, "")
    assert err == ("error: expression evaluation failed at t=0.0625: entry "
                   "(1,1): sqrt of negative value -0.0125 at offset 0\n")


def test_cli_repro_example(capsys, tmp_path):
    out_csv = tmp_path / "repro.csv"
    rc, out, _ = run_cli(capsys, "repro-example", "--out", str(out_csv))
    d = json.loads(out)
    assert rc == 0
    assert d["final_norm"] == pytest.approx(0.05614105126707865, rel=1e-10)
    # scipy Radau on the same loop, rtol 1e-13, atol 1e-15, exact Jacobian
    assert abs(d["final_norm"] - 0.0561410514482648) <= 1.9e-10
    assert len(d["final_state"]) == 2
    assert out_csv.exists()


@pytest.mark.parametrize("horizon", ["0", "-1"])
def test_cli_repro_example_rejects_a_horizon_before_t0(capsys, horizon):
    rc, out, err = run_cli(capsys, "repro-example", f"--horizon={horizon}")
    assert rc == 2 and out == ""
    assert err == "error: --horizon must exceed t0=0.0\n"


def test_cli_synthesize_reports_c3_where_gamma_is_undefined(capsys, cfg,
                                                          tmp_path):
    # gamma_1 = -sqrt(3-t) does not exist past t = 3: C3 says so, and c1
    # and c2 are still reported
    cfg["controller"]["gamma"] = ["-sqrt(3-t)", "-1-t"]
    p = tmp_path / "g.json"
    p.write_text(json.dumps(cfg))
    rc, out, _ = run_cli(capsys, "synthesize", "--config", str(p))
    d = json.loads(out)
    assert d["c1"]["verdict"] == "supported"
    assert "c2" in d and rc == (1 if d["c2"]["verdict"] == "refuted" else 0)
    assert d["c3"]["verdict"] == "inconclusive"
    assert "entry 1: sqrt of negative" in d["c3"]["note"]


@pytest.mark.parametrize("command", ["synthesize", "classify"])
def test_cli_reads_an_integral_float_n_as_the_integer(capsys, cfg, tmp_path,
                                                      command):
    outs = []
    for n in (2, 2.0):
        cfg["n"] = n
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        outs.append(run_cli(capsys, command, "--config", str(path)))
    assert outs[0] == outs[1]
    assert outs[0][0] == 0


def test_cli_runs_as_a_process(cfg, tmp_path):
    # ``python -m lognorm_control.cli`` on the source tree, no install
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "lognorm_control.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120)
    done = run("lognorm", "[[0,1],[1,0]]")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "mu_1=1 mu_2=1 mu_inf=1"
    cfg["n"] = 2.0
    path, ctl = tmp_path / "cfg.json", tmp_path / "ctl.json"
    path.write_text(json.dumps(cfg))
    ctl.write_text("null")
    done = run("synthesize", "--config", str(path))
    assert done.returncode == 0 and "Traceback" not in done.stderr
    done = run("synthesize", "--config", str(path), "--controller", str(ctl))
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr


def test_commands_leave_numpy_random_unloaded(cfg_file):
    # numpy.random is imported lazily; the commands sample with the
    # stdlib generator, so they never pay for loading it
    code = (
        "import contextlib, io, sys\n"
        "from lognorm_control.cli import main\n"
        "for cmd in ('synthesize', 'classify', 'simulate', 'verify'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main([cmd, '--config', sys.argv[1]]) == 0, cmd\n"
        "print('numpy.random' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code, str(cfg_file)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_cli_seed_env_is_inert(capsys, cfg_file, monkeypatch):
    rc, base, _ = run_cli(capsys, "classify", "--config", str(cfg_file))
    monkeypatch.setenv("LOGNORM_CONTROL_SEED", "12345")
    rc2, again, _ = run_cli(capsys, "classify", "--config", str(cfg_file))
    assert (rc, base) == (rc2, again)


def test_package_republishes_each_module_all():
    # the package imports each module's __all__ with *, where a name listed
    # twice would be shadowed silently
    owner = {}
    for name in ("linalg", "expr", "system", "synthesis", "analysis", "sim",
                 "config", "presets"):
        module = importlib.import_module(f"lognorm_control.{name}")
        for n in module.__all__:
            assert n not in owner, f"{n} is in {owner.get(n)} and {name}"
            owner[n] = name
            assert getattr(lognorm_control, n) is getattr(module, n)


def test_star_import_binds_the_modules_and_their_names():
    ns = {}
    exec("from lognorm_control import *", ns)
    del ns["__builtins__"]
    modules = ("linalg", "expr", "system", "synthesis", "analysis", "sim",
               "config", "presets", "report")
    names = {n for m in modules[:-1] for n in
             importlib.import_module(f"lognorm_control.{m}").__all__}
    assert set(ns) == set(modules) | names
    assert len(ns) == 81
    assert all(getattr(lognorm_control, n) is v for n, v in ns.items())


def test_loading_a_config_leaves_the_simulator_unloaded(cfg_file):
    # the package resolves a name on use, importing modules only up to the
    # one that holds it, so the set-up of a controller never loads sim
    code = ("import sys, lognorm_control\n"
            "cfg = lognorm_control.load_config(sys.argv[1])\n"
            "cfg.controller.build(cfg.spec)\n"
            "print('lognorm_control.sim' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code, str(cfg_file)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_declared_entry_point_without_install(capsys, monkeypatch):
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    module, attr = project["scripts"]["lognorm-control"].split(":")
    target = getattr(importlib.import_module(module), attr)
    monkeypatch.setattr(sys, "argv", ["lognorm-control", "--version"])
    with pytest.raises(SystemExit) as exc:
        target()
    assert exc.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out == project["version"]
    assert out == lognorm_control.__version__


@pytest.mark.skipif(
    shutil.which("lognorm-control") is None,
    reason="no lognorm-control script on PATH; it exists only after "
           "`pip install -e .`")
def test_installed_script_smoke():
    out = subprocess.run(["lognorm-control", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.strip() == "0.1.0"
