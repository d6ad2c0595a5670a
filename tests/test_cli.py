"""Command-line interface: artifacts, config precedence, exit codes."""

from __future__ import annotations

import ctypes
import json
import math
import os
import subprocess
import sys
import typing
import weakref

import numpy as np
import pytest

from oracles import from_array, read_matrix_csv
from tokenwalk import accountant, cli, datasets, errors, graphs, optim, spectral, transition
from tokenwalk.cli import main
from tokenwalk.ioutil import sidecar


def _read_json(path):
    return json.loads(path.read_text())


def _stdout_of(code: str, env: dict[str, str | None] | None = None) -> str:
    """What a fresh interpreter prints running `code`, with `env` over this
    process's environment (None unsets a variable)."""
    child_env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **(env or {})}
    child_env = {k: v for k, v in child_env.items() if v is not None}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env, check=True)
    return proc.stdout


def _modules_after(code: str) -> set[str]:
    """Modules (full dotted names) loaded by a fresh interpreter after running `code`."""
    return set(_stdout_of(code + "\nimport sys; print(' '.join(sorted(sys.modules)))").split())


def test_cli_import_does_not_load_scipy():
    assert "scipy" not in _modules_after("import tokenwalk.cli")


def test_package_import_does_not_load_numpy():
    # so that tokenwalk.cli, imported through the package, still sees NumPy unloaded
    assert "numpy" not in _modules_after("import tokenwalk")


@pytest.mark.parametrize("user_value, first, expected", [
    (None, "", "20"),
    ("28", "", "28"),
    (None, "import numpy\n", "None"),
], ids=["unset", "user-set", "numpy-first"])
def test_cli_import_shortens_openblas_idle_spin(user_value, first, expected):
    # OpenBLAS reads the variable when NumPy loads it, so only a fresh process
    # that has not loaded NumPy gets the CLI's value, and a user's value wins.
    code = first + "import os, tokenwalk.cli\nprint(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
    assert _stdout_of(code, {"OPENBLAS_THREAD_TIMEOUT": user_value}).strip() == expected


def test_cli_import_freezes_what_the_imports_built():
    # so that no later collection, and not the teardown at exit, scans it again
    assert int(_stdout_of("import gc, tokenwalk.cli\nprint(gc.get_freeze_count())")) > 0


# A fresh interpreter that has imported tokenwalk.cli frees a 4 MiB array, then
# prints how many mmapped blocks a 1 MiB array adds.  glibc's sliding threshold
# rises past 4 MiB on that free, so the 1 MiB block would come from the heap.
_MMAP_PROBE = (
    "import ctypes, tokenwalk.cli, numpy as np\n"
    "class Info(ctypes.Structure):\n"
    "    _fields_ = [(f, ctypes.c_size_t) for f in ('arena', 'ordblks', 'smblks', 'hblks', 'hblkhd', 'usmblks',"
    " 'fsmblks', 'uordblks', 'fordblks', 'keepcost')]\n"
    "mallinfo2 = ctypes.CDLL(None).mallinfo2\n"
    "mallinfo2.restype = Info\n"
    "np.ones(1 << 19)\n"
    "before = mallinfo2().hblks\n"
    "block = np.ones(1 << 17)\n"
    "print(mallinfo2().hblks - before)\n"
)


@pytest.mark.skipif(os.name != "posix" or not hasattr(ctypes.CDLL(None), "mallinfo2"),
                    reason="needs glibc's mallinfo2")
@pytest.mark.parametrize("env, mmapped, malloc", [
    ({}, "1", {"mmap_threshold": 131072, "malloc_mmap_threshold_": None, "malloc_trim_threshold_": None}),
    # a user's threshold wins
    ({"MALLOC_MMAP_THRESHOLD_": "8388608"}, "0",
     {"mmap_threshold": None, "malloc_mmap_threshold_": "8388608", "malloc_trim_threshold_": None}),
    # a user's trim threshold alone also stops glibc's sliding, and the CLI sets nothing
    ({"MALLOC_TRIM_THRESHOLD_": "262144"}, "1",
     {"mmap_threshold": None, "malloc_mmap_threshold_": None, "malloc_trim_threshold_": "262144"}),
], ids=["unset", "user-mmap-threshold", "user-trim-threshold"])
def test_cli_import_fixes_the_mmap_threshold(tmp_path, env, mmapped, malloc):
    # A fixed 128 KiB threshold mmaps the 1 MiB block; a run's manifest records
    # which setting held.
    env = {"MALLOC_MMAP_THRESHOLD_": None, "MALLOC_TRIM_THRESHOLD_": None, **env}
    assert _stdout_of(_MMAP_PROBE, env).strip() == mmapped
    _stdout_of(f"from tokenwalk.cli import main\nmain(['graph', '--family', 'ring', '--n', '5', "
               f"'--out', {str(tmp_path / 'g')!r}])", env)
    assert _read_json(tmp_path / "g" / "manifest.json")["diagnostics"]["malloc"] == malloc


def test_cli_import_loads_only_the_layers_it_needs():
    # sgd imports optim and datasets itself; no command uses walk directly,
    # and hashlib (OpenSSL's libcrypto) loads at the first hash.
    loaded = _modules_after("import tokenwalk.cli")
    assert not loaded & {"tokenwalk.optim", "tokenwalk.datasets", "tokenwalk.walk", "_hashlib"}
    resolved = _modules_after(
        "import tokenwalk\n"
        "assert {'optim', 'walk'} <= set(dir(tokenwalk))\n"
        "assert tokenwalk.optim.run_rw_dpsgd\n"
        "from tokenwalk import walk\n"
        "assert walk.simulate"
    )
    assert {"tokenwalk.optim", "tokenwalk.datasets", "tokenwalk.walk"} <= resolved


def test_sgd_helper_annotations_resolve():
    # cli does not import datasets or optim at module level, yet names them.
    assert typing.get_type_hints(cli._summary_row)["rec"] is optim.RunRecord
    assert typing.get_type_hints(cli._write_run)["rec"] is optim.RunRecord
    assert typing.get_type_hints(cli._load_houses_or_die)["return"] is datasets.Dataset


def test_calibrate_loads_hashlib_after_the_eigensolver(tmp_path):
    # A deterministic graph needs no hash until the manifest is written.
    code = (
        "import sys\n"
        "from tokenwalk import accountant, cli\n"
        "decompose = accountant.decompose\n"
        "def probe(tm):\n"
        "    assert '_hashlib' not in sys.modules\n"
        "    return decompose(tm)\n"
        "accountant.decompose = probe\n"
        "assert cli.main(['calibrate', '--family', 'complete', '--n', '16', '--steps', '256', "
        f"'--target-eps', '2', '--method', 'exact', '--out', {str(tmp_path)!r}]) == 0"
    )
    assert "_hashlib" in _modules_after(code)
    assert "manifest.json" in {p.name for p in tmp_path.iterdir()}


def test_logistic_sgd_run_does_not_load_scipy(tmp_path):
    # A whole logistic run: dataset, chain, calibration, all three descent loops.
    code = (
        "from tokenwalk.cli import main\n"
        "assert main(['sgd', '--preset', 'fig2', '--synthetic', '--n', '8', '--epochs', '2', "
        f"'--out', {str(tmp_path / 'fig2')!r}]) == 0"
    )
    assert "scipy" not in _modules_after(code)


def test_privacy_and_edge_list_runs_do_not_load_numpy_ma(tmp_path):
    # numpy.ma is what np.unique imports; it costs ~11-16 ms per process
    edges = tmp_path / "edges.txt"
    edges.write_text("5 3\n3 9\n9 5\n9 2\n2 7\n7 4\n4 8\n8 7\n3 5\n")  # unsorted, one repeat
    code = (
        "from tokenwalk.cli import main\n"
        "assert main(['privacy', '--family', 'erdos-renyi', '--n', '24', '--q', '0.3', "
        f"'--steps', '64', '--seeds', '1,2', '--out', {str(tmp_path / 'p')!r}]) == 0\n"
        f"assert main(['graph', '--family', 'edge-list', '--edge-file', {str(edges)!r}, "
        f"'--out', {str(tmp_path / 'g')!r}]) == 0"
    )
    assert "numpy.ma" not in _modules_after(code)


def test_exact_privacy_run_does_not_load_numpy_polynomial(tmp_path):
    # The quadrature rule is a committed table, not a per-process leggauss call.
    code = (
        "from tokenwalk.cli import main\n"
        "assert main(['privacy', '--family', 'ring', '--n', '12', '--steps', '64', "
        f"'--method', 'exact', '--out', {str(tmp_path / 'p')!r}]) == 0"
    )
    assert "numpy.polynomial" not in _modules_after(code)


# --------------------------------------------------------------------------- #
# graph
# --------------------------------------------------------------------------- #


def test_graph_command_artifacts(tmp_path):
    out = tmp_path / "g"
    rc = main(["graph", "--family", "ring", "--n", "8", "--out", str(out)])
    assert rc == 0
    stats = _read_json(out / "stats.json")
    assert stats["n"] == 8
    assert stats["edges"] == 8
    assert stats["degree_min"] == stats["degree_max"] == 2
    assert stats["diameter"] == 4
    g, _ = graphs.load_edge_list(out / "edges.txt")
    assert g.n == 8
    assert len(g.edges) == 8
    regenerated = graphs.generate(graphs.GraphSpec(family="ring", n=8))
    assert stats["hash"] == regenerated.content_hash()


def test_manifest_records_the_openblas_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.delenv("OPENBLAS_THREAD_TIMEOUT", raising=False)
    out = tmp_path / "g"
    assert main(["graph", "--family", "ring", "--n", "5", "--out", str(out)]) == 0
    blas = _read_json(out / "manifest.json")["diagnostics"]["blas"]
    assert blas == {"openblas_thread_timeout": None, "openblas_num_threads": "2"}


def test_manifest_write_raises_on_an_added_file_never_written(tmp_path):
    # Every command writes each file before it lists it, so a listed file that
    # is missing is a fault: the manifest must not drop it without a word.
    manifest = cli._Manifest(tmp_path, "graph", {}, [])
    manifest.add(tmp_path / "never.txt")
    with pytest.raises(FileNotFoundError):
        manifest.write()
    assert not (tmp_path / "manifest.json").exists()


def test_identical_configs_hash_identically(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["graph", "--family", "star", "--n", "6", "--out", str(a)])
    main(["graph", "--family", "star", "--n", "6", "--out", str(b)])
    ha = _read_json(a / "manifest.json")["config_hash"]
    hb = _read_json(b / "manifest.json")["config_hash"]
    assert ha != hb  # the out path differs...
    main(["graph", "--family", "star", "--n", "6", "--out", str(a)])
    assert _read_json(a / "manifest.json")["config_hash"] == ha  # ...else stable


def test_graph_seeded_random_family(tmp_path):
    out = tmp_path / "er"
    rc = main(
        ["graph", "--family", "erdos-renyi", "--n", "24", "--q", "0.3", "--seed", "7", "--out", str(out)]
    )
    assert rc == 0
    assert _read_json(out / "manifest.json")["seeds"] == [7]
    assert _read_json(out / "stats.json")["retries"] == 0


_CALIBRATE_RING = ["calibrate", "--family", "ring", "--n", "8", "--steps", "80"]
_PRIVACY_RING = ["privacy", "--family", "ring", "--n", "6", "--steps", "60"]
_FIG2_TOY = ["sgd", "--preset", "fig2", "--synthetic", "--n", "6", "--epochs", "2"]

# The files in TMP, a directory that holds nothing else.
_TMP_FILES = {
    "f": "not a directory\n",
    "unknown-key.json": '{"schema_version": 1, "colour": "red"}',
    "no-version.json": '{"n": 6}',
    "bad.json": "{not json",
    "bad.csv": "hops,mean\n1,0.5\n",
}

# Refused command lines: the exit code and the start of the last stderr line.
_REFUSALS = {
    "unknown-family": (["graph", "--family", "torus", "--n", "8"], 2,
                       "config error: unknown graph family 'torus' (expected one of ['complete', 'edge_list', "
                       "'erdos_renyi', 'geometric', 'grid2d', 'hypercube', 'ring', 'sbm', 'star'])"),
    "missing-n": (["graph", "--family", "ring"], 2, "config error: family 'ring' requires n"),
    "q-2": (["graph", "--family", "erdos-renyi", "--n", "8", "--q", "2"], 2,
            "config error: erdos_renyi requires q in (0,1]"),
    "cluster-sizes-3,x": (["graph", "--family", "sbm", "--cluster-sizes", "3,x", "--prob-matrix", "0.5"], 2,
                          "config error: invalid --cluster-sizes '3,x' (expected comma-separated numbers)"),
    "ragged-prob-matrix": (["graph", "--family", "sbm", "--cluster-sizes", "2,2", "--prob-matrix", "1,0.5;0.5"], 2,
                           "config error: sbm prob_matrix must be 2 x 2, one row of 2 per cluster"),
    "prob-matrix-0.5,x": (["graph", "--family", "sbm", "--cluster-sizes", "3,3", "--prob-matrix", "0.5,x;0.1,0.5"], 2,
                          "config error: invalid --prob-matrix row '0.5,x' (expected comma-separated numbers)"),
    "prob-matrix-nan": (["graph", "--family", "sbm", "--cluster-sizes", "3,3", "--prob-matrix", "0.5,nan;nan,0.5"], 2,
                        "config error: sbm probabilities must be in [0,1]"),
    "statistic-bogus": ([*_CALIBRATE_RING, "--target-eps", "2", "--statistic", "bogus"], 2,
                        "tokenwalk calibrate: error: argument --statistic: invalid choice: 'bogus'"),
    "kappa-auto-steps-0": (["privacy", "--family", "ring", "--n", "6", "--kappa", "auto", "--steps", "0"], 2,
                           "config error: --kappa auto needs --steps to derive 1/T^2"),
    "kappa-lots": ([*_PRIVACY_RING, "--kappa", "lots"], 2,
                   "tokenwalk privacy: error: argument --kappa: invalid 'auto' or float in [0, 1) value: 'lots'"),
    "privacy-sigma2-below-gate": (["privacy", "--family", "complete", "--n", "4", "--steps", "40", "--sigma2", "1"], 3,
                                  "accounting error: sigma2=1.0 violates the amplification requirement "
                                  "sigma2 >= 2*alpha*(alpha-1) = 4.0 at alpha=2.0"),
    "privacy-steps-0": (["privacy", "--family", "ring", "--n", "6", "--steps", "0"], 3,
                        "accounting error: closed form requires steps >= 1"),
    "privacy-negative-closed-kernel": (["privacy", "--family", "ring", "--n", "128", "--steps", "4"], 3,
                                       "accounting error: the closed form gives a negative loss kernel ("),
    "privacy-seeds-empty": ([*_PRIVACY_RING, "--seeds", ","], 2, "config error: empty seed list ','"),
    "sgd-seeds-empty": ([*_FIG2_TOY, "--seeds", ","], 2, "config error: empty seed list ','"),
    # a repeated seed would be accounted twice and overwrite its own files
    "privacy-seeds-duplicate": ([*_PRIVACY_RING, "--seeds", "0,1,0"], 2, "config error: duplicate seed in '0,1,0'"),
    "sgd-seeds-duplicate": ([*_FIG2_TOY, "--seeds", "0,1,0"], 2, "config error: duplicate seed in '0,1,0'"),
    "calibrate-target-eps-0": ([*_CALIBRATE_RING, "--target-eps", "0"], 5,
                               "calibration infeasible: target epsilon 0.0 is below the conversion floor; "
                               "minimal feasible epsilon at delta=1e-06 is 0.219294"),
    "fig2-sigma": (["sgd", "--preset", "fig2", "--synthetic", "--n", "8", "--epochs", "2", "--sigma", "1"], 2,
                   "config error: --preset fig2 does not read --sigma"),
    "heterogeneity-seeds": (["sgd", "--preset", "heterogeneity", "--n", "40", "--steps", "60", "--seeds", "0,1"], 2,
                            "config error: --preset heterogeneity runs one seed, got --seeds 0,1"),
    "sgd-preset-quantum": (["sgd", "--preset", "quantum"], 2,
                           "tokenwalk sgd: error: argument --preset: invalid choice: 'quantum'"),
    "houses-not-found": (["sgd", "--preset", "fig2", "--n", "8", "--epochs", "2"], 4,
                         "data error: Houses dataset not found. Fetch it with scripts/fetch_houses.py"),
    "report-no-input": (["report"], 2, "config error: report needs at least one input distance-series CSV"),
    "report-missing-input": (["report", "TMP/missing.csv"], 2, "config error: input not found: TMP/missing.csv"),
    "report-malformed-series": (["report", "TMP/bad.csv"], 2, "config error: unreadable distance series: "
                                "TMP/bad.csv: expected a 'distance' first column"),
    "config-unknown-key": (["graph", "--family", "ring", "--n", "6", "--config", "TMP/unknown-key.json"], 2,
                           "config error: TMP/unknown-key.json: unknown config keys ['colour']"),
    "config-no-schema-version": (["graph", "--family", "ring", "--config", "TMP/no-version.json"], 2,
                                 "config error: TMP/no-version.json: schema_version must be 1, got None"),
    "config-invalid-json": (["graph", "--family", "ring", "--n", "6", "--config", "TMP/bad.json"], 2,
                            "config error: TMP/bad.json: invalid JSON (Expecting property name"),
    "config-missing-file": (["graph", "--family", "ring", "--n", "6", "--config", "TMP/missing.json"], 2,
                            "config error: config file not found: TMP/missing.json"),
    # --out on the file f, or under it, is refused before any work
    "out-is-a-file": (["graph", "--family", "ring", "--n", "5", "--out", "TMP/f"], 2,
                      "config error: --out TMP/f: cannot make a directory (File exists)"),
    "out-under-a-file": (["graph", "--family", "ring", "--n", "5", "--out", "TMP/f/o"], 2,
                         "config error: --out TMP/f/o: cannot make a directory (Not a directory)"),
}


@pytest.mark.parametrize("case", _REFUSALS)
def test_refused_run_leaves_no_out_path(tmp_path, capsys, monkeypatch, case):
    argv, rc, message = _REFUSALS[case]
    argv, message = [arg.replace("TMP", str(tmp_path)) for arg in argv], message.replace("TMP", str(tmp_path))
    if case.startswith("out-"):
        monkeypatch.setattr(graphs, "generate", lambda spec: pytest.fail("graph generated for a refused --out"))
    else:
        argv += ["--out", str(tmp_path / "o")]
    monkeypatch.delenv(datasets.DATA_DIR_ENV, raising=False)
    for name, text in _TMP_FILES.items():
        (tmp_path / name).write_text(text)
    assert _exit_code(argv) == rc
    lines = capsys.readouterr().err.splitlines()
    assert lines[-1].startswith(message), lines
    assert len(lines) == 1 or lines[0].startswith("usage:"), lines  # argparse prints its usage first
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == _TMP_FILES


# The exit code and stderr label of a run that each error type ends.
_ERROR_EXITS = {
    errors.ConfigError: (2, "config error"), errors.GraphError: (2, "config error"),
    errors.TransitionError: (2, "config error"), errors.AccountantError: (3, "accounting error"),
    errors.SpectralError: (3, "accounting error"), errors.DataError: (4, "data error"),
    errors.CalibrationError: (5, "calibration infeasible"), errors.TokenwalkError: (1, "error"),
}


@pytest.mark.parametrize("error", _ERROR_EXITS, ids=lambda error: error.__name__)
def test_each_error_type_ends_a_run_with_its_exit_code_and_label(tmp_path, capsys, monkeypatch, error):
    rc, label = _ERROR_EXITS[error]

    def fail(spec):
        raise error("boom")

    monkeypatch.setattr(graphs, "generate", fail)
    assert main(["graph", "--family", "ring", "--n", "5", "--out", str(tmp_path / "o")]) == rc
    assert capsys.readouterr().err == f"{label}: boom\n"
    assert not (tmp_path / "o").exists()


# --------------------------------------------------------------------------- #
# config files
# --------------------------------------------------------------------------- #


def _config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_config_fills_unset_flags(tmp_path):
    cfg = _config(tmp_path, {"schema_version": 1, "family": "ring", "n": 10})
    out = tmp_path / "out"
    assert main(["graph", "--family", "ring", "--config", cfg, "--out", str(out)]) == 0
    assert _read_json(out / "stats.json")["n"] == 10


def test_explicit_flags_beat_config(tmp_path):
    cfg = _config(tmp_path, {"schema_version": 1, "n": 10, "seed": 3})
    out = tmp_path / "out"
    rc = main(["graph", "--family", "ring", "--n", "6", "--config", cfg, "--out", str(out)])
    assert rc == 0
    assert _read_json(out / "stats.json")["n"] == 6  # CLI value kept
    assert _read_json(out / "manifest.json")["seeds"] == [3]  # config filled


def test_explicit_flag_equal_to_default_beats_config(tmp_path):
    cfg = _config(tmp_path, {"schema_version": 1, "sigma2": 32.0, "method": "exact", "n": 5})
    out = tmp_path / "out"
    argv = ["privacy", "--family", "ring", "--steps", "20", "--sigma2", "16", "--method", "closed"]
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 0
    meta = _read_json(out / "pairwise_seed0.csv.json")
    assert (meta["sigma2"], meta["method"]) == (16.0, "closed")  # CLI values kept
    assert meta["alpha"] == 2.0  # neither given: the default
    assert len(read_matrix_csv(out / "pairwise_seed0.csv")) == 5  # config filled


@pytest.mark.parametrize("config", ["", "."])
def test_config_directory_is_not_found(tmp_path, capsys, monkeypatch, config):
    monkeypatch.chdir(tmp_path)
    assert main(["graph", "--family", "ring", "--n", "6", "--config", config, "--out", "o"]) == 2
    assert "config file not found" in capsys.readouterr().err


@pytest.mark.parametrize("argv, key, value", [
    (["privacy", "--family", "ring", "--n", "6", "--steps", "20"], "alpha", "2"),
    (["graph", "--family", "ring"], "n", 6.5),
    (["sgd", "--preset", "fig2", "--n", "8", "--epochs", "1"], "synthetic", "no"),
    (["privacy", "--family", "ring", "--n", "6", "--steps", "20"], "method", "bogus"),
    (["privacy", "--family", "ring", "--n", "6", "--steps", "20"], "seeds", 3),
    (["graph", "--family", "sbm", "--prob-matrix", "0.9,0.1;0.1,0.9", "--seed", "1"], "cluster_sizes", [3, 3]),
    (["report"], "inputs", "a.csv"),
    (["calibrate", "--family", "ring", "--n", "6", "--steps", "20"], "target_eps", True),
])
def test_bad_config_value_exits_2_naming_file_and_key(tmp_path, capsys, argv, key, value):
    # Each value is one the command line could not give its flag.
    cfg = _config(tmp_path, {"schema_version": 1, key: value})
    out = tmp_path / "o"
    assert main([*argv, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: {key}")
    assert not out.exists()


@pytest.mark.parametrize("argv, payload, output", [
    (["graph"], {"family": "ring", "n": 6}, "stats.json"),
    (["privacy"], {"family": "ring", "n": 6, "steps": 20}, "distance_dp.csv"),
    (["sgd"], {"preset": "fig2", "synthetic": True, "n": 8, "epochs": 1, "target_eps": 2.0}, "summary.json"),
    (["calibrate", "--family", "complete", "--n", "8"], {"steps": 80, "target_eps": 2}, "calibration.json"),
    (["report", "s.csv"], {}, "report.csv"),
])
def test_required_flags_may_come_from_config(tmp_path, monkeypatch, argv, payload, output):
    monkeypatch.chdir(tmp_path)
    _series(tmp_path, "s.csv", [(1, 0.5, 0.0, 4)])
    assert main([*argv, "--config", _config(tmp_path, {"schema_version": 1, "out": "o", **payload})]) == 0
    assert (tmp_path / "o" / output).exists()


@pytest.mark.parametrize("argv, flag", [
    (["privacy", "--family", "ring", "--n", "6", "--out", "o"], "--steps"),
    (["calibrate", "--family", "ring", "--n", "6", "--steps", "20", "--out", "o"], "--target-eps"),
    (["sgd", "--out", "o"], "--preset"),
    (["graph", "--family", "ring", "--n", "6"], "--out"),
])
def test_required_flag_given_nowhere_exits_2_naming_it(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    cfg = _config(tmp_path, {"schema_version": 1})
    assert main([*argv, "--config", cfg]) == 2
    assert f"config error: {flag} is required" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [tmp_path / "config.json"]


def test_config_number_hashes_like_the_flag(tmp_path):
    # A JSON 2 for a float flag is the float 2.0 that `--alpha 2` gives.
    out = str(tmp_path / "o")
    argv = ["privacy", "--family", "ring", "--n", "6", "--steps", "20", "--out", out]
    assert main([*argv, "--alpha", "2"]) == 0
    from_flag = _read_json(tmp_path / "o" / "manifest.json")["config_hash"]
    assert main([*argv, "--config", _config(tmp_path, {"schema_version": 1, "alpha": 2})]) == 0
    assert _read_json(tmp_path / "o" / "manifest.json")["config_hash"] == from_flag


def _flag_and_config(name, options):
    """Command-line tokens and a JSON config value that give flag `name` the same value."""
    if options.get("action") == "store_true":
        return [name], True
    if "nargs" in options:  # report's positional CSVs
        return ["a.csv"], ["a.csv"]
    if "choices" in options:
        return [name, options["choices"][0]], options["choices"][0]
    if options.get("type") in (cli._PROBABILITY, cli._SELF_LOOPS):
        return [name, "0.5"], 0.5
    if "type" in options:
        return [name, "3"], 3  # a JSON int, also for float flags
    return [name, "ring"], "ring"


_REQUIRED_ARGV = {"family": ["--family", "ring"], "steps": ["--steps", "3"], "target_eps": ["--target-eps", "3"],
                  "preset": ["--preset", "fig2"], "out": ["--out", "o"]}


@pytest.mark.parametrize("command, key", [(command, row[0]) for command, flags in cli._FLAGS.items() for row in flags])
def test_flag_and_config_value_resolve_alike(tmp_path, command, key):
    _, name, _, _, options = next(row for row in cli._FLAGS[command] if row[0] == key)
    tokens, value = _flag_and_config(name, options)
    others = [t for k, _, _, required, _ in cli._FLAGS[command] if required and k != key for t in _REQUIRED_ARGV[k]]
    cfg = _config(tmp_path, {"schema_version": 1, key: value})
    resolved = []
    for argv in ([command, *others, *tokens], [command, *others, "--config", cfg]):
        args = cli.build_parser().parse_args(argv)
        cli._resolve_flags(args)
        vars(args).pop("config", None)
        out = tmp_path / str(len(resolved))
        out.mkdir()
        cli._Manifest(out, command, cli._public_config(args), []).write()
        typed = {k: (type(v), v) for k, v in vars(args).items()}
        resolved.append((typed, _read_json(out / "manifest.json")["config_hash"]))
    assert resolved[0] == resolved[1]


# --------------------------------------------------------------------------- #
# privacy
# --------------------------------------------------------------------------- #


def test_privacy_outputs_match_library(tmp_path):
    out = tmp_path / "p"
    rc = main(
        [
            "privacy", "--family", "complete", "--n", "4", "--steps", "40",
            "--alpha", "2", "--sigma2", "16", "--method", "exact", "--out", str(out),
        ]
    )
    assert rc == 0
    got = read_matrix_csv(out / "pairwise_seed0.csv")
    g = graphs.generate(graphs.GraphSpec(family="complete", n=4))
    tm = transition.hamilton_weighting(g)
    p = accountant.PrivacyParams(alpha=2.0, sigma2=16.0, steps=40)
    expected = accountant.pairwise_matrix(tm, p, method="exact")
    assert np.array_equal(got, expected, equal_nan=True)
    # the dp series adds the conversion tail to the mean series
    mean_rows = (out / "distance_mean.csv").read_text().strip().splitlines()[1:]
    dp_rows = (out / "distance_dp.csv").read_text().strip().splitlines()[1:]
    tail = math.log(1e6)  # ln(1/delta) / (alpha - 1) at alpha=2, delta=1e-6
    for m_line, d_line in zip(mean_rows, dp_rows):
        mean = float(m_line.split(",")[1])
        eps_dp = float(d_line.split(",")[1])
        assert eps_dp == pytest.approx(mean + tail, rel=1e-12)


def test_privacy_multi_seed_aggregates(tmp_path):
    out = tmp_path / "p"
    rc = main(
        [
            "privacy", "--family", "erdos-renyi", "--n", "12", "--q", "0.5",
            "--steps", "24", "--seeds", "0,1,2", "--out", str(out),
        ]
    )
    assert rc == 0
    for seed in (0, 1, 2):
        assert (out / f"pairwise_seed{seed}.csv").exists()
        assert (out / f"distance_seed{seed}.csv").exists()
    series = cli._read_distance_series(out / "distance_mean.csv")
    assert series  # aggregated across seeds
    per_seed = [
        cli._read_distance_series(out / f"distance_seed{s}.csv") for s in (0, 1, 2)
    ]
    d1 = [next(b.mean for b in s if b.distance == 1) for s in per_seed]
    merged_d1 = next(b for b in series if b.distance == 1)
    assert merged_d1.mean == pytest.approx(float(np.mean(d1)), rel=1e-12)


def test_privacy_lets_each_chain_go_before_its_csv_and_the_next_graph(tmp_path, monkeypatch):
    # A chain holds W and its cached n x n eigenvectors, which no stage after
    # the pairwise matrix reads: alive beside the CSV, the BFS or the next
    # seed's eigensolve, they would raise the run's peak memory.
    chains = []
    build, write, generate = cli._build_chain, cli.write_matrix_csv, graphs.generate

    def tracked_build(*args, **kwargs):
        tm = build(*args, **kwargs)
        chains.append(weakref.ref(tm))
        return tm

    def checked_write(*args, **kwargs):
        assert chains and all(ref() is None for ref in chains), "a chain is alive at its pairwise CSV"
        return write(*args, **kwargs)

    def checked_generate(*args, **kwargs):
        assert all(ref() is None for ref in chains), "an earlier seed's chain is alive at the next graph"
        return generate(*args, **kwargs)

    monkeypatch.setattr(cli, "_build_chain", tracked_build)
    monkeypatch.setattr(cli, "write_matrix_csv", checked_write)
    monkeypatch.setattr(graphs, "generate", checked_generate)
    assert main(["privacy", "--family", "erdos-renyi", "--n", "24", "--q", "0.3", "--steps", "64",
                 "--method", "exact", "--seeds", "0,1", "--out", str(tmp_path / "p")]) == 0
    assert len(chains) == 2


def test_privacy_kappa_auto(tmp_path):
    out = tmp_path / "p"
    rc = main(
        ["privacy", "--family", "ring", "--n", "6", "--steps", "60", "--kappa", "auto", "--out", str(out)]
    )
    assert rc == 0
    meta = _read_json(out / "pairwise_seed0.csv.json")
    assert meta["steps"] == 60
    with_auto = read_matrix_csv(out / "pairwise_seed0.csv")
    g = graphs.generate(graphs.GraphSpec(family="ring", n=6))
    tm = transition.blend_self_loops(transition.hamilton_weighting(g), 1.0 / 60.0**2)
    p = accountant.PrivacyParams(alpha=2.0, sigma2=16.0, steps=60)
    expected = accountant.pairwise_matrix(tm, p, method="closed")
    assert np.array_equal(with_auto, expected, equal_nan=True)


@pytest.mark.parametrize("command", ["privacy", "calibrate"])
@pytest.mark.parametrize("tokens, message", [
    (["--kappa", "1", "--steps", "60"], "argument --kappa: invalid 'auto' or float in [0, 1) value: '1'"),
    (["--kappa", "auto", "--steps", "0"], "config error: --kappa auto needs --steps to derive 1/T^2"),
], ids=["kappa-1", "kappa-auto-steps-0"])
def test_kappa_outside_its_domain_exits_2_before_the_graph(tmp_path, capsys, monkeypatch, command, tokens, message):
    def refuse(*args, **kwargs):
        raise AssertionError("graph generated for a self-loop mass outside [0, 1)")

    monkeypatch.setattr(graphs, "generate", refuse)
    out = tmp_path / "o"
    argv = [command, "--family", "ring", "--n", "6", *tokens, "--out", str(out)]
    if command == "calibrate":
        argv += ["--target-eps", "1"]
    # argparse refuses --kappa 1; the command checks the pair of flags before its graph
    assert _exit_code(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------------------- #
# exit codes
# --------------------------------------------------------------------------- #


def test_exit_3_negative_closed_kernel(tmp_path, capsys):
    # T = 4 is far below the ring's mixing time, where the T -> infinity closed
    # form goes negative (mean loss -1.9e-4 at distances 61-64): no loss bound.
    # _REFUSALS["privacy-negative-closed-kernel"] holds the refusal; here, the
    # exact method that its message names runs.
    argv = ["privacy", "--family", "ring", "--n", "128", "--steps", "4", "--out", str(tmp_path / "o")]
    assert main(argv) == 3
    assert capsys.readouterr().err.rstrip().endswith("; use --method exact")
    assert main([*argv, "--method", "exact"]) == 0


def test_exit_2_negative_steps_before_the_graph(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("graph generated for a negative walk length")

    monkeypatch.setattr(graphs, "generate", refuse)
    argv = ["calibrate", "--family", "complete", "--n", "8", "--steps", "-1", "--target-eps", "1",
            "--kappa", "auto", "--out", str(tmp_path / "o")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "argument --steps: invalid nonnegative int value: '-1'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_exit_5_infeasible_target(tmp_path, capsys):
    rc = main(
        [
            "calibrate", "--family", "complete", "--n", "16", "--steps", "160",
            "--target-eps", "0.01", "--out", str(tmp_path / "o"),
        ]
    )
    assert rc == 5
    assert "calibration infeasible" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# calibrate
# --------------------------------------------------------------------------- #


def test_calibrate_artifact_round_trips(tmp_path):
    out = tmp_path / "c"
    rc = main(
        [
            "calibrate", "--family", "complete", "--n", "16", "--steps", "1600",
            "--target-eps", "1.0", "--method", "exact", "--out", str(out),
        ]
    )
    assert rc == 0
    cal = _read_json(out / "calibration.json")
    assert cal["target_eps"] == 1.0
    assert cal["epsilon"] <= 1.0 + 1e-9
    g = graphs.generate(graphs.GraphSpec(family="complete", n=16))
    tm = transition.hamilton_weighting(g)
    p = accountant.PrivacyParams(alpha=cal["alpha"], sigma2=cal["sigma2"], steps=1600)
    matrix = accountant.pairwise_matrix(tm, p, method="exact")
    stat = accountant.MEAN_PAIRS.apply(matrix)
    recovered = accountant.rdp_to_dp(cal["alpha"], stat, cal["delta"])
    assert recovered.epsilon == pytest.approx(cal["epsilon"], rel=1e-9)


def test_calibrate_statistic_choices(tmp_path):
    out = tmp_path / "c"
    rc = main(
        [
            "calibrate", "--family", "ring", "--n", "8", "--steps", "80",
            "--kappa", "0.25", "--target-eps", "2.0",
            "--statistic", "mean_at_distance", "--distance", "2", "--out", str(out),
        ]
    )
    assert rc == 0
    assert _read_json(out / "calibration.json")["statistic"] == "mean_at_distance"


@pytest.mark.parametrize(
    "flags, message",
    [(["--statistic", "bogus"], "argument --statistic: invalid choice: 'bogus'"),
     (["--statistic", "mean-at-distance"], "needs --distance"),
     (["--statistic", "mean_pairs", "--distance", "3"], "--statistic mean_pairs does not read --distance"),
     (["--statistic", "mean-at_distance", "--distance", "3"], "argument --statistic: invalid choice: 'mean-at_distance'")],
)
def test_calibrate_rejects_bad_statistic_before_building_the_graph(
    tmp_path, capsys, monkeypatch, flags, message
):
    def refuse(*args, **kwargs):
        raise AssertionError("graph generated for an invalid statistic")

    monkeypatch.setattr(graphs, "generate", refuse)
    out = tmp_path / "c"
    assert _exit_code(["calibrate", "--family", "ring", "--n", "8", "--steps", "80",
                       "--target-eps", "2.0", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err  # argparse prints its usage first
    assert message in err and err.startswith("usage:" if "invalid choice" in message else "config error: ")
    assert not out.exists()


@pytest.mark.parametrize("method", ["exact", "closed"])
def test_calibrate_refuses_an_empty_distance_before_the_eigensolver(tmp_path, capsys, monkeypatch, method):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve for a distance that holds no pair")

    monkeypatch.setattr(accountant, "decompose", refuse)
    monkeypatch.setattr(spectral, "decompose", refuse)
    out = tmp_path / "c"
    assert main(["calibrate", "--family", "complete", "--n", "8", "--steps", "80", "--target-eps", "1",
                 "--statistic", "mean_at_distance", "--distance", "2", "--method", method, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "accounting error: no pairs at hop distance 2\n"
    assert not out.exists()


# --------------------------------------------------------------------------- #
# sgd presets (tiny instances)
# --------------------------------------------------------------------------- #


def test_sgd_averaging_preset(tmp_path):
    out = tmp_path / "avg"
    rc = main(
        [
            "sgd", "--preset", "averaging", "--n", "8", "--steps", "400",
            "--gamma", "0.05", "--seeds", "0,1", "--out", str(out),
        ]
    )
    assert rc == 0
    summary = _read_json(out / "summary.json")
    assert len(summary["runs"]) == 2
    assert all(r["algorithm"] == "rw_dpsgd" for r in summary["runs"])
    assert (out / "averaging_seed0.csv").exists()
    assert (out / "averaging_seed1.csv").exists()


def test_sgd_averaging_step_size_above_256_nodes_uses_the_spectral_bound(tmp_path):
    # Past 256 nodes the derived step size takes the mixing time from the
    # spectral bound, not the empirical walk.  At T = 20000 the log branch of
    # step_size_theorem2 is below 1/L, so gamma shows which mixing time ran.
    n, steps = 300, 20000
    out = tmp_path / "avg"
    assert main(["sgd", "--preset", "averaging", "--n", str(n), "--steps", str(steps), "--out", str(out)]) == 0
    tm = transition.with_self_loops(graphs.generate(graphs.GraphSpec(family="ring", n=n)), 1.0 / 3.0)
    obj = optim.AveragingObjective(np.random.default_rng(np.random.SeedSequence(0)).normal(size=n))
    d0 = float(np.sum((np.full(1, 100.0) - obj.optimum()) ** 2))
    tau = float(spectral.mixing_time_spectral_bound(tm))
    expected = optim.step_size_theorem2(2.0, 2.0, steps, d0, tau, obj.heterogeneity())
    assert expected < 0.5
    assert _read_json(sidecar(out / "averaging_seed0.csv"))["gamma"] == expected
    assert _read_json(out / "summary.json")["runs"][0]["gamma"] == expected


@pytest.mark.parametrize("name", ["bare-ring-4", "two-blocks"])
def test_sgd_step_size_on_nonmixing_chain_exit_codes(tmp_path, capsys, monkeypatch, name):
    # The averaging preset derives gamma from the chain's empirical mixing
    # time; a chain that never mixes is an accounting error.
    if name == "bare-ring-4":
        w = transition.hamilton_weighting(graphs.generate(graphs.GraphSpec(family="ring", n=4))).w
    else:
        w = np.zeros((4, 4))
        w[:2, :2] = w[2:, 2:] = 0.5
    monkeypatch.setattr(transition, "with_self_loops", lambda g, kappa: from_array(w))
    out = tmp_path / name
    argv = ["sgd", "--preset", "averaging", "--n", "4", "--steps", "50", "--out", str(out)]
    assert main(argv) == 3
    assert "no mixing within" in capsys.readouterr().err


def test_sgd_heterogeneity_preset(tmp_path):
    out = tmp_path / "het"
    rc = main(
        [
            "sgd", "--preset", "heterogeneity", "--n", "40", "--steps", "600",
            "--seeds", "3", "--out", str(out),
        ]
    )
    assert rc == 0
    summary = _read_json(out / "summary.json")
    tags = {r["shuffled"] for r in summary["runs"]}
    assert tags == {False, True}
    assert (out / "heterogeneity_spatial.csv").exists()
    assert (out / "heterogeneity_shuffled.csv").exists()


def test_sgd_fig2_synthetic(tmp_path):
    out = tmp_path / "fig2"
    rc = main(
        [
            "sgd", "--preset", "fig2", "--synthetic", "--n", "16", "--epochs", "4",
            "--target-eps", "1.0", "--seeds", "0", "--out", str(out),
        ]
    )
    assert rc == 0
    summary = _read_json(out / "summary.json")
    algos = [r["algorithm"] for r in summary["runs"]]
    assert algos == ["rw_dpsgd", "local_dpsgd", "central_dpsgd"]
    # calibrated noise recorded for reproduction
    assert all(r["sigma2_rw"] > 0 and r["sigma2_local"] > 0 for r in summary["runs"])
    assert (out / "rw_dpsgd_eps1.0_seed0.csv").exists()


def _exit_code(argv):
    """What `main` returns for `argv`, or the code argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# Exit code and message of fig2 with one flag set to 0, which the preset's
# default must not replace.
_ZERO_FLAG_OUTCOMES = {
    "--gamma": (0, ""),
    "--n": (2, "argument --n: invalid positive int value: '0'"),
    "--per-user": (2, "argument --per-user: invalid positive int value: '0'"),
    "--delta": (2, "argument --delta: invalid float in (0, 1) value: '0'"),
    "--clip": (2, "argument --clip: invalid finite positive float value: '0'"),
    "--target-eps": (5, "calibration infeasible: target epsilon 0.0 is below the conversion floor"),
    "--epochs": (5, "calibration infeasible: degenerate statistic 0.0"),
    "--steps": (5, "calibration infeasible: degenerate statistic 0.0"),
}


@pytest.mark.parametrize("flag", _ZERO_FLAG_OUTCOMES)
def test_sgd_explicit_zero_is_not_replaced_by_the_preset_default(tmp_path, capsys, flag):
    rc, message = _ZERO_FLAG_OUTCOMES[flag]
    out = tmp_path / "fig2"
    epochs = [] if flag == "--steps" else ["--epochs", "2"]  # fig2 does not read --epochs beside --steps
    argv = ["sgd", "--preset", "fig2", "--synthetic", "--n", "8", *epochs, flag, "0", "--out", str(out)]
    assert _exit_code(argv) == rc
    assert message in capsys.readouterr().err
    if rc == 0:  # gamma = 0: every run takes zero-length steps
        assert {r["gamma"] for r in _read_json(out / "summary.json")["runs"]} == {0.0}


# Flags a preset would ignore, each once accepted with exit 0 (or, for --per-user
# on Houses, a data error).  Exit 2 names the preset and every unread flag.
_UNREAD_FLAG_CASES = {
    "fig2-sigma": (["fig2", "--synthetic", "--n", "8", "--epochs", "2", "--sigma", "99"], ["--sigma"]),
    "table1-target-eps": (["table1-rw", "--synthetic", "--n", "8", "--epochs", "2", "--target-eps", "3"],
                          ["--target-eps"]),
    "table1-sigma": (["table1-rw", "--synthetic", "--n", "8", "--epochs", "2", "--sigma", "99"], ["--sigma"]),
    "averaging-regression-flags": (
        ["averaging", "--n", "8", "--steps", "40", "--synthetic", "--target-eps", "3", "--delta", "0.5",
         "--per-user", "3"], ["--per-user", "--target-eps", "--delta", "--synthetic"]),
    "heterogeneity-regression-flags": (
        ["heterogeneity", "--n", "40", "--steps", "60", "--synthetic", "--target-eps", "3", "--delta", "0.5",
         "--per-user", "3"], ["--per-user", "--target-eps", "--delta", "--synthetic"]),
    "heterogeneity-seeds": (["heterogeneity", "--n", "40", "--steps", "60", "--seeds", "0,1,2"],
                            ["runs one seed", "--seeds 0,1,2"]),
    "fig2-epochs-beside-steps": (["fig2", "--synthetic", "--n", "8", "--steps", "10", "--epochs", "2"],
                                 ["--epochs"]),
    "fig2-per-user-on-houses": (["fig2", "--n", "8", "--epochs", "2", "--per-user", "3"], ["--per-user"]),
}


@pytest.mark.parametrize("case", _UNREAD_FLAG_CASES)
def test_sgd_refuses_unread_flags_before_any_work(tmp_path, capsys, monkeypatch, case):
    def refuse(*args, **kwargs):
        raise AssertionError("sgd built a graph, dataset or calibration for a refused command line")

    for module, name in [(graphs, "generate"), (datasets, "synth_linear"), (datasets, "find_houses_csv"),
                         (datasets, "synth_heterogeneous_geometric"), (accountant, "calibrate_sigma")]:
        monkeypatch.setattr(module, name, refuse)
    argv, named = _UNREAD_FLAG_CASES[case]
    out = tmp_path / "o"
    assert main(["sgd", "--preset", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: --preset {argv[0]} ")
    assert all(text in err for text in named)
    assert not out.exists()


def test_sgd_refuses_unread_flag_from_config(tmp_path, capsys):
    cfg = _config(tmp_path, {"schema_version": 1, "sigma": 99})
    out = tmp_path / "o"
    assert main(["sgd", "--preset", "fig2", "--synthetic", "--n", "8", "--epochs", "2",
                 "--config", cfg, "--out", str(out)]) == 2
    assert "config error: --preset fig2 does not read --sigma" in capsys.readouterr().err
    assert not out.exists()


_PRESET_ARGV = {
    "fig2": ["fig2", "--synthetic", "--n", "8"],
    "table1-rw": ["table1-rw", "--synthetic", "--n", "8"],
    "heterogeneity": ["heterogeneity", "--n", "40"],
    "averaging": ["averaging", "--n", "8"],
}

# A bad descent or privacy setting exits 2 with one message under every preset
# that reads it, NaN and inf included: a NaN sigma would run without noise.
_BAD_SGD_SETTINGS = [
    *((preset, ["--steps", "-1"], "argument --steps: invalid nonnegative int value: '-1'") for preset in _PRESET_ARGV),
    *((preset, ["--steps", "10", "--gamma", "-1"], "argument --gamma: invalid finite nonnegative float value: '-1'")
      for preset in _PRESET_ARGV),
    *((preset, ["--steps", "10", "--clip", "0"], "argument --clip: invalid finite positive float value: '0'")
      for preset in _PRESET_ARGV),
    *((preset, ["--steps", "10", "--gamma", "inf"], "argument --gamma: invalid finite nonnegative float value: 'inf'")
      for preset in _PRESET_ARGV),
    *((preset, ["--steps", "10", "--clip", "inf"], "argument --clip: invalid finite positive float value: 'inf'")
      for preset in _PRESET_ARGV),
    *((preset, ["--steps", "10", "--sigma", value],
       f"argument --sigma: invalid finite nonnegative float value: '{value}'")
      for preset in ("heterogeneity", "averaging") for value in ("nan", "inf")),
    ("fig2", ["--epochs", "-1"], "argument --epochs: invalid nonnegative int value: '-1'"),
    ("table1-rw", ["--epochs", "-1"], "argument --epochs: invalid nonnegative int value: '-1'"),
    ("fig2", ["--steps", "10", "--delta", "2"], "argument --delta: invalid float in (0, 1) value: '2'"),
    ("table1-rw", ["--steps", "10", "--delta", "2"], "argument --delta: invalid float in (0, 1) value: '2'"),
    ("fig2", ["--steps", "10", "--target-eps", "-1"],
     "argument --target-eps: invalid finite nonnegative float value: '-1'"),
]


@pytest.mark.parametrize("preset, flags, message", _BAD_SGD_SETTINGS,
                         ids=[f"{p}{''.join(f)}" for p, f, _ in _BAD_SGD_SETTINGS])
def test_sgd_checks_its_settings_before_any_work(tmp_path, capsys, monkeypatch, preset, flags, message):
    def refuse(*args, **kwargs):
        raise AssertionError("sgd built a graph or dataset for a bad setting")

    for module, name in [(graphs, "generate"), (datasets, "synth_linear"),
                         (datasets, "synth_heterogeneous_geometric")]:
        monkeypatch.setattr(module, name, refuse)
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(["sgd", "--preset", *_PRESET_ARGV[preset], *flags, "--out", str(out)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_every_sgd_flag_is_read_by_some_preset():
    flags = {key: options for key, _, _, _, options in cli._FLAGS["sgd"]}
    assert set().union(*cli._PRESETS.values()) == set(flags) - {"preset", "seeds", "out"}
    assert set(cli._PRESETS) == set(flags["preset"]["choices"])


# --------------------------------------------------------------------------- #
# numeric flag domains
# --------------------------------------------------------------------------- #


def _sgd_argv(preset, key):
    """An sgd command line at toy size that reads flag `key`, which it does not give."""
    size = [] if key == "n" else _PRESET_ARGV[preset][-2:]
    length = [] if key in ("steps", "epochs") else ["--steps", "16"]
    return ["sgd", "--preset", *_PRESET_ARGV[preset][:-2], *size, *length]


_GRAPH_FLAG_ARGV = {"n": ["--family", "ring"], "rows": ["--family", "grid2d", "--cols", "3"],
                    "cols": ["--family", "grid2d", "--rows", "2"], "dim": ["--family", "hypercube"],
                    "q": ["--family", "erdos-renyi", "--n", "8"], "radius": ["--family", "geometric", "--n", "8"]}
_ER = ["--family", "erdos-renyi", "--n", "8", "--q", "0.5"]

# Every numeric flag of every command and sgd preset: (label, a command line
# that reads the flag but does not give it, config key).
_NUMERIC_FLAG_CASES = [
    *((command, [command, *graph_argv, *rest], key)
      for command, rest in (("graph", []), ("privacy", ["--steps", "60"]),
                            ("calibrate", ["--steps", "80", "--target-eps", "2"]))
      for key, graph_argv in _GRAPH_FLAG_ARGV.items()),
    ("graph", ["graph", *_ER], "seed"),
    ("privacy", ["privacy", *_ER], "steps"),
    *(("privacy", ["privacy", *_ER, "--steps", "60"], key) for key in ("alpha", "sigma2", "delta", "kappa", "seeds")),
    ("calibrate", ["calibrate", *_ER, "--target-eps", "2"], "steps"),
    ("calibrate", ["calibrate", *_ER, "--steps", "80"], "target_eps"),
    *(("calibrate", ["calibrate", *_ER, "--steps", "80", "--target-eps", "2"], key)
      for key in ("delta", "kappa", "seed")),
    ("calibrate", ["calibrate", "--family", "ring", "--n", "8", "--steps", "80", "--target-eps", "2",
                   "--statistic", "mean_at_distance"], "distance"),
    *((f"sgd:{preset}", _sgd_argv(preset, key), key)
      for preset, reads in cli._PRESETS.items() for key in (*reads, "seeds") if key != "synthetic"),
]
_FUZZ_VALUES = {"0": 0, "-1": -1, "nan": math.nan, "inf": math.inf}  # as JSON numbers: 0, -1, NaN, Infinity

# The values among those that lie in their flag's domain, and what each gives;
# every other value exits 2.  fig2's zeros are the table above.
_DEFINED_OUTCOMES = {
    **{("sgd:fig2", flag[2:].replace("-", "_"), "0"): outcome
       for flag, outcome in _ZERO_FLAG_OUTCOMES.items() if outcome[0] != 2},
    ("sgd:table1-rw", "gamma", "0"): (0, ""),
    **{("sgd:table1-rw", key, "0"): (5, "calibration infeasible: degenerate statistic 0.0")
       for key in ("epochs", "steps")},
    **{(f"sgd:{preset}", key, "0"): (0, "")
       for preset in ("heterogeneity", "averaging") for key in ("epochs", "steps", "gamma", "sigma")},
    **{(command, "steps", "0"): (3, "accounting error: closed form requires steps >= 1")
       for command in ("privacy", "calibrate")},
    ("calibrate", "target_eps", "0"): (5, "calibration infeasible: target epsilon 0.0 is below the conversion floor"),
    ("privacy", "sigma2", "inf"): (0, ""),  # no loss
    **{(label, key, "0"): (0, "") for label, _, key in _NUMERIC_FLAG_CASES if key in ("seed", "seeds", "kappa")},
}

# The flags whose type is no domain, which their graph check refuses.  --seeds,
# a list, main reads before any work.
_LATER_CHECKS = {"q": "config error: erdos_renyi requires q in (0,1]",
                 "radius": "config error: geometric requires radius in (0, sqrt(2)]"}


@pytest.mark.parametrize("label, argv, key, value",
                         [(*case, value) for case in _NUMERIC_FLAG_CASES for value in _FUZZ_VALUES],
                         ids=[f"{case[0]}-{case[2]}-{value}" for case in _NUMERIC_FLAG_CASES for value in _FUZZ_VALUES])
def test_every_number_outside_its_flags_domain_exits_2(tmp_path, capsys, monkeypatch, label, argv, key, value):
    rc, message = _DEFINED_OUTCOMES.get((label, key, value), (2, None))
    options = next(opts for k, _, _, _, opts in cli._FLAGS[argv[0]] if k == key)
    typed = key not in (*_LATER_CHECKS, "seeds")  # its type is its domain
    early = key not in _LATER_CHECKS  # refused before any work
    if early and rc == 2:
        def refuse(*args, **kwargs):
            raise AssertionError("a run started for a number outside its flag's domain")

        for module, name in [(graphs, "generate"), (datasets, "synth_linear"), (datasets, "find_houses_csv"),
                             (datasets, "synth_heterogeneous_geometric"), (accountant, "calibrate_sigma")]:
            monkeypatch.setattr(module, name, refuse)
    flag = "--" + key.replace("_", "-")
    cfg = _config(tmp_path, {"schema_version": 1, key: _FUZZ_VALUES[value] if "type" in options else value})
    for source, tokens in (("flag", [flag, value]), ("config", ["--config", cfg])):
        out = tmp_path / source
        run = [*argv, *tokens, "--out", str(out)]
        if rc == 2 and typed and source == "flag":  # argparse refuses it
            with pytest.raises(SystemExit) as exc:
                main(run)
            assert exc.value.code == 2
            message = f"argument {flag}: invalid {options['type'].__name__} value: '{value}'"
        else:
            assert main(run) == rc, source
            if rc == 2:
                message = (f"config error: {cfg}: {key}: invalid " if typed
                           else _LATER_CHECKS.get(key, "config error: invalid seed list"))
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err, source
        if rc == 0:
            assert (out / "manifest.json").exists()
        else:  # a refused run leaves no out dir
            assert not out.exists(), source


# --------------------------------------------------------------------------- #
# report
# --------------------------------------------------------------------------- #


def _series(tmp_path, name, rows, meta=None):
    path = tmp_path / name
    lines = ["distance,mean,std,count"] + [f"{d},{m},{s},{c}" for d, m, s, c in rows]
    path.write_text("\n".join(lines) + "\n")
    if meta is not None:
        sidecar(path).write_text(json.dumps(meta))
    return path


def test_report_merges_sources(tmp_path):
    a = _series(tmp_path, "a.csv", [(1, 0.5, 0.0, 4), (2, 0.25, 0.0, 4)], {"method": "exact"})
    b = _series(tmp_path, "b.csv", [(1, 0.6, 0.1, 8)])
    out = tmp_path / "rep"
    rc = main(["report", f"{a}=ours", str(b), "--out", str(out)])
    assert rc == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "distance,mean,std,method,graph,source"
    assert len(lines) == 4  # 2 + 1 data rows
    sources = [line.split(",")[-1] for line in lines[1:]]
    assert sources == ["ours", "ours", "b"]
    methods = [line.split(",")[3] for line in lines[1:]]
    assert methods == ["exact", "exact", ""]


def test_report_reads_privacy_sidecars(tmp_path):
    # privacy writes a sidecar beside each distance series, so report fills
    # method and graph for the program's own series
    run = tmp_path / "p"
    assert main(["privacy", "--family", "erdos-renyi", "--n", "12", "--q", "0.5", "--steps", "24",
                 "--seeds", "0,1", "--method", "exact", "--out", str(run)]) == 0
    per_seed = _read_json(run / "distance_seed1.csv.json")
    assert per_seed == _read_json(run / "pairwise_seed1.csv.json")
    # its seeds may have different graphs, so the mean series names none
    assert _read_json(run / "distance_mean.csv.json") == {
        "alpha": 2.0, "sigma2": 16.0, "steps": 24, "method": "exact", "seeds": [0, 1]}
    out = tmp_path / "rep"
    assert main(["report", str(run / "distance_seed1.csv"), f"{run / 'distance_mean.csv'}=mean",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in (out / "report.csv").read_text().splitlines()[1:]]
    n_seed1 = len(cli._read_distance_series(run / "distance_seed1.csv"))
    assert n_seed1 > 0 and len(rows) > n_seed1
    for row in rows[:n_seed1]:
        assert row[3:] == ["exact", per_seed["graph_hash"][:12], "distance_seed1"]
    for row in rows[n_seed1:]:
        assert row[3:] == ["exact", "", "mean"]


def test_report_inputs_from_config(tmp_path):
    a = _series(tmp_path, "a.csv", [(1, 0.5, 0.0, 4)])
    cfg = _config(tmp_path, {"schema_version": 1, "inputs": [f"{a}=cfg"]})
    out = tmp_path / "rep"
    assert main(["report", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "report.csv").read_text().splitlines()[1].endswith(",cfg")


@pytest.mark.parametrize("sidecar", ["{not json", "[1, 2]"])
def test_report_rejects_malformed_sidecar(tmp_path, capsys, sidecar):
    a = _series(tmp_path, "a.csv", [(1, 0.5, 0.0, 4)])
    (tmp_path / "a.csv.json").write_text(sidecar)
    assert main(["report", str(a), "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "a.csv.json" in err


# The file each reader opens, a command line that reads it, and the exit code
# of the reader's typed error.  The sidecar's command reads a good series.
_TEXT_READERS = {
    "report-input": ("x.csv", ["report", "{path}"], 2),
    "report-sidecar": ("x.csv.json", ["report", "{series}"], 2),
    "edge-file": ("edges.txt", ["graph", "--family", "edge-list", "--edge-file", "{path}"], 2),
    "houses": ("houses.csv", ["sgd", "--preset", "fig2", "--n", "4", "--epochs", "1"], 4),
}


@pytest.mark.parametrize("fault", ["directory", "not-utf8"])
@pytest.mark.parametrize("reader", _TEXT_READERS)
def test_unreadable_text_exits_with_its_readers_typed_error(tmp_path, capsys, monkeypatch, reader, fault):
    name, argv, code = _TEXT_READERS[reader]
    path = tmp_path / name
    if fault == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"0 1\n\xff\n")
    series = _series(tmp_path, "x.csv", [(1, 0.5, 0.0, 4)]) if reader == "report-sidecar" else None
    monkeypatch.setenv(datasets.DATA_DIR_ENV, str(tmp_path))
    argv = [token.format(path=path, series=series) for token in argv]
    assert main([*argv, "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


def test_kappa_spellings_of_one_number_share_a_config_hash(tmp_path, monkeypatch):
    def config_hash(label, tokens):  # each run in its own directory, with the same relative --out
        (tmp_path / label).mkdir()
        monkeypatch.chdir(tmp_path / label)
        assert main(["privacy", "--family", "ring", "--n", "6", "--steps", "60", *tokens, "--out", "o"]) == 0
        return _read_json(tmp_path / label / "o" / "manifest.json")["config_hash"]

    spellings = {text: config_hash(text, ["--kappa", text]) for text in ("0.5", ".5", "5e-1", "0.50")}
    spellings["config"] = config_hash("config", ["--config", _config(tmp_path, {"schema_version": 1, "kappa": 0.5})])
    assert len(set(spellings.values())) == 1, spellings
