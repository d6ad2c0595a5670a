"""Output corpus: every file each command line writes, pinned byte for byte.

Each row of :data:`ROWS` runs once, in-process, from a fresh directory with
``--out o``.  Its test checks that ``manifest.json`` lists exactly the files
written and that their digests verify, then pins the first 16 hex digits of
the SHA-256 of every output file.  Only wall clocks are masked: a JSON file is
hashed after re-dumping it without its ``wall_clock`` keys, and the manifest
also drops the digests of the files that hold one.  Both ``OPENBLAS_*``
variables and glibc's two ``MALLOC_*_THRESHOLD_`` variables are unset for
the run, so ``diagnostics.blas`` reads null, and ``diagnostics.malloc``
records the threshold that importing ``tokenwalk.cli`` set: the pins assume
that glibc's ``mallopt`` took it, in a suite started without either variable.

The pins were made with OpenBLAS's ``SkylakeX`` kernel on two threads.  The
privacy and calibration bytes follow LAPACK's ``eigh`` bits, and at full size
they differ between one and two threads, so a mismatch names the row, the
files, and the core and thread count it ran with.  Any re-pin is listed in
CHANGES.md.
"""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tokenwalk.cli import main
from tokenwalk.ioutil import new_sha256, sha256_of_file

# The input files that rows name, written beside `o` before each run.
INPUTS = {
    "in.txt": "5 3\n3 9\n9 5\n9 2\n2 7\n7 4\n4 8\n8 7\n3 5\n",  # unsorted, one repeat
    "cfg.json": '{"schema_version": 1, "n": 12, "alpha": 3.0, "kappa": "0.25", "seeds": "1,2", "method": "exact"}',
    "s.csv": "distance,mean,std,count\n1,0.5,0.0,4\n",
    "s.csv.json": '{"method": "exact", "graph_hash": "0123456789abcdef"}',
}

# name: (command line, {output file: SHA-256 prefix}).  privacy-er,
# privacy-ring-lazy, calibrate-complete and sgd-fig2 are the benchmark
# workloads' command lines at seed 0 (perfbench/run.py).
ROWS = {
    "graph": ("graph --family ring --n 5", {
        "edges.txt": "0a7e9d776abf75b1", "edges.txt.json": "a51becbe42ccad43", "manifest.json": "320606c15352ade6",
        "stats.json": "d1af14578ef38e3f"}),
    "graph-seed": ("graph --family erdos-renyi --n 12 --q 0.5 --seed 3", {
        "edges.txt": "ba920c7a9efd6938", "edges.txt.json": "75f30b98cd05488b", "manifest.json": "45ff096302dd2a8b",
        "stats.json": "9ac79ac138d28f69"}),
    "graph-complete": ("graph --family complete --n 5", {
        "edges.txt": "b9142af063584e79", "edges.txt.json": "770a4548b3bb7740", "manifest.json": "96dd2dafc950a860",
        "stats.json": "54f593e36e668f40"}),
    "graph-star": ("graph --family star --n 6", {
        "edges.txt": "716d0358248021fe", "edges.txt.json": "b32b7794936c448a", "manifest.json": "4e726af17ac82093",
        "stats.json": "13c92da90911ceae"}),
    "graph-grid2d": ("graph --family grid2d --rows 3 --cols 4", {
        "edges.txt": "1e8e04e28cad555c", "edges.txt.json": "0b90ed0f2274dd07", "manifest.json": "92f75c0064da7333",
        "stats.json": "457a90b732bd5566"}),
    "graph-hypercube": ("graph --family hypercube --dim 3", {
        "edges.txt": "53674a178d5181f4", "edges.txt.json": "ac30645ce42c0b4d", "manifest.json": "d294d018e02c83a4",
        "stats.json": "b7b38712ebd5b331"}),
    "graph-geometric": ("graph --family geometric --n 16 --seed 1", {
        "edges.txt": "4414dcd241d31c80", "edges.txt.json": "b9544232d49979e8", "manifest.json": "dbc59631af1f3600",
        "stats.json": "24b8c792b59f6b1d"}),
    "graph-sbm": ("graph --family sbm --cluster-sizes 4,4 --prob-matrix 0.9,0.2;0.2,0.9 --seed 2", {
        "edges.txt": "92a21fa578b03406", "edges.txt.json": "a38bd56ae45f584a", "manifest.json": "6a5ed34e7553dd45",
        "stats.json": "2fa70c3ad862815e"}),
    "graph-edge-list": ("graph --family edge-list --edge-file in.txt", {
        "edges.txt": "a086d671984ef0fd", "edges.txt.json": "34d983644258cd03", "manifest.json": "d960be44e73e229a",
        "stats.json": "1fbeddb47b4b7712"}),
    "privacy": ("privacy --family ring --n 6 --steps 60 --seeds 0,2", {
        "distance_dp.csv": "4983b712a100a83f", "distance_mean.csv": "031e928bb659b96e",
        "distance_mean.csv.json": "b105e3f5ec4c253b", "distance_seed0.csv": "89f6b90ec1717f27",
        "distance_seed0.csv.json": "f69337060f8489b4", "distance_seed2.csv": "89f6b90ec1717f27",
        "distance_seed2.csv.json": "f69337060f8489b4", "manifest.json": "ad60d596dcafc319",
        "pairwise_seed0.csv": "4b1d5c4a33cc4193", "pairwise_seed0.csv.json": "f69337060f8489b4",
        "pairwise_seed2.csv": "4b1d5c4a33cc4193", "pairwise_seed2.csv.json": "f69337060f8489b4"}),
    "privacy-er-kappa-auto": ("privacy --family erdos-renyi --n 12 --q 0.5 --kappa auto --steps 64 --seeds 0,1", {
        "distance_dp.csv": "788361c1dab8251a", "distance_mean.csv": "90a703498e3461bd",
        "distance_mean.csv.json": "d35a6b68df31850b", "distance_seed0.csv": "902a6b7ce7a142f3",
        "distance_seed0.csv.json": "ac6f593537bb8665", "distance_seed1.csv": "f5ca495fc73fcc9d",
        "distance_seed1.csv.json": "f6ed473d86fdf56d", "manifest.json": "e72a1b627aa87746",
        "pairwise_seed0.csv": "87018002ae90600e", "pairwise_seed0.csv.json": "ac6f593537bb8665",
        "pairwise_seed1.csv": "db1b27b30978c10e", "pairwise_seed1.csv.json": "f6ed473d86fdf56d"}),
    "privacy-config": ("privacy --family ring --steps 64 --config cfg.json", {
        "distance_dp.csv": "d563e41aead06a25", "distance_mean.csv": "1694f80d0cf7f526",
        "distance_mean.csv.json": "85b47de5fde29d37", "distance_seed1.csv": "6bd47b44549c0ad8",
        "distance_seed1.csv.json": "2d186c7268a1092e", "distance_seed2.csv": "6bd47b44549c0ad8",
        "distance_seed2.csv.json": "2d186c7268a1092e", "manifest.json": "7c6d4c922195687f",
        "pairwise_seed1.csv": "d2390c0b7a6fa23a", "pairwise_seed1.csv.json": "2d186c7268a1092e",
        "pairwise_seed2.csv": "d2390c0b7a6fa23a", "pairwise_seed2.csv.json": "2d186c7268a1092e"}),
    "privacy-er": ("privacy --family erdos-renyi --n 320 --q 0.06 --steps 65536 --method exact --seeds 0", {
        "distance_dp.csv": "c0fe749baf8bf5b0", "distance_mean.csv": "4890f20c145964f6",
        "distance_mean.csv.json": "b9508251440a4878", "distance_seed0.csv": "cf49fb2654b5e993",
        "distance_seed0.csv.json": "ef0ad6c62619a31e", "manifest.json": "a119d8b92f411960",
        "pairwise_seed0.csv": "a5a91168ea922115", "pairwise_seed0.csv.json": "ef0ad6c62619a31e"}),
    "privacy-ring-lazy": ("privacy --family ring --n 256 --kappa auto --steps 50000 --method exact --seeds 0", {
        "distance_dp.csv": "35d66ced6fd0847e", "distance_mean.csv": "15b3ef29d671ae65",
        "distance_mean.csv.json": "4a8c231a6fa90064", "distance_seed0.csv": "7ebed708b313f4b3",
        "distance_seed0.csv.json": "ef2a1d7bc9d50d62", "manifest.json": "ba91540d2d82e7d5",
        "pairwise_seed0.csv": "2174eab82b562c58", "pairwise_seed0.csv.json": "ef2a1d7bc9d50d62"}),
    "calibrate": ("calibrate --family ring --n 8 --steps 80 --target-eps 2", {
        "calibration.json": "308cd5efe5ddb4fa", "manifest.json": "37983b60d03a1505"}),
    "calibrate-seed": ("calibrate --family erdos-renyi --n 12 --q 0.5 --steps 120 --target-eps 2 --seed 4", {
        "calibration.json": "18f2c82339f4cf2d", "manifest.json": "0f629799c770dffc"}),
    "calibrate-max-pairs": ("calibrate --family hypercube --dim 3 --kappa auto --steps 80 --target-eps 2"
                            " --statistic max_pairs --method exact", {
        "calibration.json": "7778e06a9c2022ad", "manifest.json": "e996c2a2a4142702"}),
    "calibrate-distance": ("calibrate --family grid2d --rows 3 --cols 3 --steps 90 --target-eps 2"
                           " --statistic mean-at-distance --distance 2", {
        "calibration.json": "a3d40ca12eaa7d45", "manifest.json": "f1637990620df9d3"}),
    "calibrate-complete": ("calibrate --family complete --n 512 --steps 65536 --target-eps 0.95"
                           " --method exact --seed 0", {
        "calibration.json": "15b10e0aff35bb44", "manifest.json": "bdf0d288d0dccabc"}),
    "report": ("report s.csv=ours", {
        "manifest.json": "d90af66e2b097641", "report.csv": "e0f77b543fd6e0db"}),
    "sgd-fig2-n8": ("sgd --preset fig2 --synthetic --n 8 --epochs 1", {
        "central_dpsgd_eps1.0_seed0.csv": "ebdf543fb77a7260",
        "central_dpsgd_eps1.0_seed0.csv.json": "a55c9bdb41df9fc8", "local_dpsgd_eps1.0_seed0.csv": "9f7fb01ee92df728",
        "local_dpsgd_eps1.0_seed0.csv.json": "90c6cc2cfe69d624", "manifest.json": "8930c5d6f5cc6b19",
        "rw_dpsgd_eps1.0_seed0.csv": "0325e58cd924fa62", "rw_dpsgd_eps1.0_seed0.csv.json": "99727b275d587eba",
        "summary.json": "c2c6322e27768952"}),
    # The run files of these two rows keep the digests that were pinned before the
    # sgd presets became one table.
    "sgd-fig2-n12": ("sgd --preset fig2 --synthetic --n 12 --epochs 6 --seeds 4", {
        "central_dpsgd_eps1.0_seed4.csv": "5d0920d4c9a349f1",
        "central_dpsgd_eps1.0_seed4.csv.json": "2ab5460524c8971c", "local_dpsgd_eps1.0_seed4.csv": "3df053d6b909fb9c",
        "local_dpsgd_eps1.0_seed4.csv.json": "a7db83392a9a50e2", "manifest.json": "6bbe9e3872267620",
        "rw_dpsgd_eps1.0_seed4.csv": "615c54f2e7a7bce6", "rw_dpsgd_eps1.0_seed4.csv.json": "bb8ccd4a22ceee36",
        "summary.json": "1db318d372c867ef"}),
    "sgd-table1-rw": ("sgd --preset table1-rw --synthetic --n 8 --epochs 1 --seeds 1,5", {
        "manifest.json": "aa5c2b0d0c9c83ff", "rw_dpsgd_eps0.5_seed1.csv": "353de09673af0a40",
        "rw_dpsgd_eps0.5_seed1.csv.json": "99727b275d587eba", "rw_dpsgd_eps0.5_seed5.csv": "b42e980dcf7d8558",
        "rw_dpsgd_eps0.5_seed5.csv.json": "99727b275d587eba", "rw_dpsgd_eps1.0_seed1.csv": "dbf9ac571201a5a0",
        "rw_dpsgd_eps1.0_seed1.csv.json": "99727b275d587eba", "rw_dpsgd_eps1.0_seed5.csv": "e14566fa40756a89",
        "rw_dpsgd_eps1.0_seed5.csv.json": "99727b275d587eba", "rw_dpsgd_eps2.0_seed1.csv": "41334535c770f14c",
        "rw_dpsgd_eps2.0_seed1.csv.json": "99727b275d587eba", "rw_dpsgd_eps2.0_seed5.csv": "6fee2132880efbc7",
        "rw_dpsgd_eps2.0_seed5.csv.json": "99727b275d587eba", "summary.json": "253717ce3e17c5c4"}),
    "sgd-table1-rw-n12": ("sgd --preset table1-rw --synthetic --n 12 --epochs 4 --seeds 0", {
        "manifest.json": "dba040dc1fd4e5c4", "rw_dpsgd_eps0.5_seed0.csv": "fdbc172bf6cac633",
        "rw_dpsgd_eps0.5_seed0.csv.json": "15ad288c7610b37c", "rw_dpsgd_eps1.0_seed0.csv": "5eba34dbe21885b1",
        "rw_dpsgd_eps1.0_seed0.csv.json": "15ad288c7610b37c", "rw_dpsgd_eps2.0_seed0.csv": "57708915de13c87a",
        "rw_dpsgd_eps2.0_seed0.csv.json": "15ad288c7610b37c", "summary.json": "f05ab2006c25d046"}),
    "sgd-heterogeneity": ("sgd --preset heterogeneity --n 40 --steps 100 --seeds 2", {
        "heterogeneity_shuffled.csv": "3ee647853dbada17", "heterogeneity_shuffled.csv.json": "10f9aa58b2cc530e",
        "heterogeneity_spatial.csv": "0bd3d1819c945732", "heterogeneity_spatial.csv.json": "10f9aa58b2cc530e",
        "manifest.json": "c758c5c1c7dff4f3", "summary.json": "af14dec1980baedc"}),
    "sgd-averaging": ("sgd --preset averaging --n 8 --steps 100 --seeds 0,1", {
        "averaging_seed0.csv": "0ebc4b61524fbb9c", "averaging_seed0.csv.json": "a5e6155194ee69e2",
        "averaging_seed1.csv": "2e13a4d7c7c25261", "averaging_seed1.csv.json": "0c5411bb0c4ae510",
        "manifest.json": "7c763d33e0b9c2d7", "summary.json": "553f87e9f902d9a0"}),
    "sgd-fig2": ("sgd --preset fig2 --synthetic --n 256 --epochs 32 --seeds 0", {
        "central_dpsgd_eps1.0_seed0.csv": "5507d8dedb830ce7",
        "central_dpsgd_eps1.0_seed0.csv.json": "48330b3b807de20d", "local_dpsgd_eps1.0_seed0.csv": "6f3e1e0393b34136",
        "local_dpsgd_eps1.0_seed0.csv.json": "7382760629043830", "manifest.json": "18adab67469ebe40",
        "rw_dpsgd_eps1.0_seed0.csv": "0a2754cf342bc668", "rw_dpsgd_eps1.0_seed0.csv.json": "22356ae3fc494203",
        "summary.json": "a68ca0e01c8cca98"}),
}

# Each command's manifest label and seeds: privacy and sgd record their seed
# list, graph and calibrate the --seed they were given, if any.
LABELS = {"graph": ("graph", []), "graph-seed": ("graph", [3]), "privacy": ("privacy", [0, 2]),
          "calibrate": ("calibrate", []), "calibrate-seed": ("calibrate", [4]), "report": ("report", []),
          "sgd-fig2-n8": ("sgd:fig2", [0]), "sgd-table1-rw": ("sgd:table1-rw", [1, 5]),
          "sgd-heterogeneity": ("sgd:heterogeneity", [2]), "sgd-averaging": ("sgd:averaging", [0, 1])}

# A manifest promises that an unchanged config keeps its hash, whatever the
# parser's internals.
CONFIG_HASHES = {
    "privacy-er": "9cf7b9b4c82ab7625e48d4ab9d213e05ade936b20eedc84ae6a8367050092357",
    "privacy-ring-lazy": "16c3f8bae8612d30d5cc0ca27206b9a66bb613f9956203340ce63a5080a06cb1",
    "calibrate-complete": "4c6ccb5a178214e11e8b7a62a0cf5f1534e53d8f40bd6aa67102f025bc897a5c",
    "sgd-fig2": "872179f4af31ff9371c8ba3b1985154aedc9bb3d4eed47543a616621a2de0bb2",
    "privacy-config": "2839ddb1c65dca17b9f2fedb47a66369ee77cfcc95f1ae5f50cc400e04513604",
}


def _openblas() -> str:
    """The core and thread count of NumPy's bundled OpenBLAS, None where a symbol is missing."""
    lib = next((ctypes.CDLL(str(p)) for p in (Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")), None)
    core, threads = (getattr(lib, f"scipy_openblas_get_{what}64_", None) for what in ("corename", "num_threads"))
    if core is not None:
        core.argtypes, core.restype = [], ctypes.c_char_p
    if threads is not None:
        threads.argtypes, threads.restype = [], ctypes.c_int
    return f"OpenBLAS core {core and core().decode()}, {threads and threads()} threads"


def _pins(out: Path) -> dict[str, str]:
    """The SHA-256 prefix of every file in `out`, wall clocks masked."""
    clocked = {p.name for p in out.iterdir() if b'"wall_clock"' in p.read_bytes()}
    return {p.name: new_sha256(_unclocked(p, clocked)).hexdigest()[:16] for p in out.iterdir()}


def _unclocked(path: Path, clocked: set[str]) -> bytes:
    """A JSON file re-dumped without its wall clocks, a manifest also without the digests of `clocked` files."""
    if path.suffix != ".json":
        return path.read_bytes()
    obj = json.loads(path.read_text(), object_hook=lambda d: {k: v for k, v in d.items() if k != "wall_clock"})
    if path.name == "manifest.json":
        obj["files"] = {f: d for f, d in obj["files"].items() if f not in clocked}
    return json.dumps(obj, indent=2).encode()


@pytest.mark.parametrize("name", ROWS)
def test_outputs_are_golden(tmp_path, monkeypatch, name):
    line, pins = ROWS[name]
    monkeypatch.chdir(tmp_path)
    for var in ("OPENBLAS_THREAD_TIMEOUT", "OPENBLAS_NUM_THREADS", "MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
        monkeypatch.delenv(var, raising=False)
    for file, text in INPUTS.items():
        (tmp_path / file).write_text(text)
    assert main([*line.split(), "--out", "o"]) == 0
    out = tmp_path / "o"
    manifest = json.loads((out / "manifest.json").read_text())
    # the manifest lists every file written, and nothing else, with its digest
    assert {p.name: sha256_of_file(p) for p in out.iterdir() if p.name != "manifest.json"} == manifest["files"]
    if name in LABELS:
        assert (manifest["command"], manifest["seeds"]) == LABELS[name]
    if name in CONFIG_HASHES:
        assert manifest["config_hash"] == CONFIG_HASHES[name]
    got = _pins(out)
    wrong = sorted(f for f in {*got, *pins} if got.get(f) != pins.get(f))
    assert not wrong, f"row {name}: {wrong} differ from the pins ({_openblas()}); got {got}"


def test_cli_fig2_run_files_are_golden_in_a_fresh_process(tmp_path):
    # The corpus runs after NumPy is loaded; a fresh CLI process loads it
    # under the OpenBLAS idle-spin setting that tokenwalk.cli makes.
    line, pins = ROWS["sgd-fig2-n12"]
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    launch = "import sys; from tokenwalk.cli import main; sys.exit(main(sys.argv[1:]))"
    subprocess.run([sys.executable, "-c", launch, *line.split(), "--out", "o"],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    out = tmp_path / "o"
    assert json.loads((out / "manifest.json").read_text())["diagnostics"]["blas"]["openblas_thread_timeout"] == "20"
    got, runs = _pins(out), dict(pins)
    del got["manifest.json"], runs["manifest.json"]  # the manifest records the timeout
    assert got == runs, _openblas()
