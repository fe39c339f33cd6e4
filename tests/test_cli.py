"""Command-line behavior: artifacts, exit codes, config replay."""

import dataclasses
import inspect
import subprocess
import sys

import pytest

from gca import (
    CATALOG, Steps, Topology, archsim, catalog_names, cli, execute, formats, make_configuration,
)
from gca.algorithms import alg_max
from gca.cli import FORMAT_CHOICES, OUT_DIR_ENV, STOP_CHOICES, RunConfig, main
from gca.oracles import load_golden


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    return tmp_path


# ---------------------------------------------------------------------------
# RunConfig round-trip

def test_runconfig_round_trip():
    cfg = RunConfig(alg="xor1d-basic", n=31, steps=5, pointers=True, seed=7)
    again = RunConfig.from_text(cfg.to_text())
    assert again == cfg
    assert RunConfig.from_text(again.to_text()) == again


def test_runconfig_defaults_and_blanks():
    cfg = RunConfig.from_text("alg=max\nn=\nmode=\n# comment\n\nformat=\n")
    assert cfg.alg == "max" and cfg.n is None
    assert cfg.mode == "sync" and cfg.format == "text"  # blanks keep defaults


def test_runconfig_rejects_unknown_key():
    with pytest.raises(ValueError, match="not a config entry"):
        RunConfig.from_text("alg=max\nbogus=1\n")
    with pytest.raises(ValueError, match="true or false"):
        RunConfig.from_text("pointers=yes\n")


# ---------------------------------------------------------------------------
# run

def test_run_writes_golden_rows(outdir, capsys):
    rc = main(["run", "--alg", "xor1d-basic", "--n", "31", "--steps", "5"])
    assert rc == 0
    text = (outdir / "xor1d-basic.txt").read_text()
    golden = load_golden("out-c-basic")
    assert text == "\n".join(golden.rows) + "\n"
    assert "wrote" in capsys.readouterr().out


def test_run_general_variant_golden(outdir):
    rc = main(["run", "--alg", "xor1d-general", "--n", "31", "--steps", "5"])
    assert rc == 0
    golden = load_golden("out-c-general")
    assert (outdir / "xor1d-general.txt").read_text() == "\n".join(golden.rows) + "\n"


def test_run_summary_fixed_point(outdir, capsys):
    rc = main(["run", "--alg", "reduce-sum", "--n", "8", "--stop", "fixed-point",
               "--format", "none"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "halted: fixed point, t=4" in out


def test_run_writes_config_artifact(outdir):
    main(["run", "--alg", "max", "--n", "6", "--steps", "3"])
    cfg = RunConfig.from_text((outdir / "max-config.txt").read_text())
    assert cfg.alg == "max" and cfg.n == 6 and cfg.steps == 3


def test_run_pgm_and_edges(outdir):
    rc = main(["run", "--alg", "xor2d-r1", "--n", "8", "--steps", "2",
               "--format", "pgm", "--edges"])
    assert rc == 0
    pgms = sorted(p.name for p in outdir.glob("*.pgm"))
    assert pgms == ["xor2d-r1-t0000.pgm", "xor2d-r1-t0001.pgm", "xor2d-r1-t0002.pgm"]
    assert (outdir / "xor2d-r1-t0000.pgm").read_bytes().startswith(b"P5\n8 8\n")
    edge_lines = (outdir / "xor2d-r1-edges.csv").read_text().splitlines()
    assert edge_lines[1] == "t,reader,target"
    assert len(edge_lines) == 2 + 2 * 8 * 8 * 4  # two steps, four arms per cell


def test_pgm_of_data_that_is_not_numbers_is_a_precondition_error(outdir, tmp_path, capsys):
    # fft cells hold (real, imaginary) pairs, which have no grey level
    assert main(["run", "--alg", "fft", "--format", "pgm"]) == 2
    assert "PGM needs a grid of real numbers" in capsys.readouterr().err
    snap = tmp_path / "pairs.txt"
    snap.write_text(formats.snapshot_dump(execute(CATALOG["fft"]()).config))
    assert main(["render", str(snap), "--format", "pgm"]) == 2
    assert "PGM needs a grid of real numbers" in capsys.readouterr().err
    assert list(outdir.glob("*.pgm")) == []


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_pgm_of_data_that_is_not_finite_is_a_precondition_error(outdir, tmp_path, capsys, bad):
    snap = tmp_path / "nonfinite.txt"
    cfg = make_configuration([0.5, bad, 2.0, 3.0], (), Topology.torus(2, 2))
    snap.write_text(formats.snapshot_dump(cfg))
    assert main(["render", str(snap), "--format", "pgm"]) == 2
    assert "PGM needs finite cell data" in capsys.readouterr().err
    assert list(outdir.glob("*.pgm")) == []


def test_pgm_of_floats_whose_range_overflows(outdir, tmp_path):
    snap = tmp_path / "wide.txt"
    cfg = make_configuration([1e308, -1e308, 0.0, 1e308], (), Topology.torus(2, 2))
    snap.write_text(formats.snapshot_dump(cfg))
    assert main(["render", str(snap), "--format", "pgm"]) == 0
    assert (outdir / "wide.pgm").read_bytes() == b"P5\n2 2\n255\n" + bytes([0, 255, 127, 0])


def test_pgm_of_an_int_too_large_for_a_float_is_a_precondition_error(outdir, tmp_path, capsys):
    snap = tmp_path / "huge.txt"
    cfg = make_configuration([10**400, 0.5, 2, 3], (), Topology.torus(2, 2))
    snap.write_text(formats.snapshot_dump(cfg))
    assert main(["render", str(snap), "--format", "pgm"]) == 2
    assert "PGM needs cell data that fit a float" in capsys.readouterr().err
    assert list(outdir.glob("*.pgm")) == []


def test_edges_are_written_whatever_the_format(outdir, tmp_path, monkeypatch):
    assert main(["run", "--alg", "max", "--n", "8", "--format", "none", "--edges"]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == ["max-config.txt", "max-edges.csv"]
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "text"))
    assert main(["run", "--alg", "max", "--n", "8", "--edges"]) == 0
    text_edges = (tmp_path / "text" / "max-edges.csv").read_text()
    assert (outdir / "max-edges.csv").read_text() == text_edges
    assert text_edges.count("\n") > 8  # a header and the edges of every step


def test_size_is_set_by_n_only(outdir, capsys):
    for flags in (["--w", "5"], ["--h", "3"], ["--w", "5", "--h", "3"]):
        assert main(["run", "--alg", "xor2d-r1", "--n", "8", *flags]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []
    for key in ("w=8", "h=8", "states=false"):
        with pytest.raises(ValueError, match="not a config entry"):
            RunConfig.from_text(f"alg=xor2d-r1\n{key}\n")


def test_run_pointer_rows(outdir):
    main(["run", "--alg", "xor1d-basic", "--n", "31", "--steps", "5", "--pointers"])
    assert (outdir / "xor1d-basic-p1.txt").exists()
    assert (outdir / "xor1d-basic-p2.txt").exists()


def test_pointer_rows_of_cells_without_pointers_are_a_precondition_error(outdir, capsys):
    assert main(["run", "--alg", "fft", "--pointers"]) == 2
    assert "fft: its cells store no pointers" in capsys.readouterr().err
    assert list(outdir.iterdir()) == []
    # a 2-D entry ignores the flag, with pointers or without
    for alg in ("xor-plain", "xor2d-r1"):
        assert main(["run", "--alg", alg, "--pointers"]) == 0
        assert not list(outdir.glob(f"{alg}-p*.txt"))


def test_run_prints_its_summary_then_each_artifact_in_order(outdir, capsys):
    rc = main(["run", "--alg", "xor1d-basic", "--n", "31", "--steps", "5",
               "--pointers", "--edges"])
    assert rc == 0
    names = ["xor1d-basic.txt", "xor1d-basic-p1.txt", "xor1d-basic-p2.txt",
             "xor1d-basic-edges.csv", "xor1d-basic-config.txt"]
    assert capsys.readouterr().out.splitlines() == [
        "xor1d-basic: 5 steps, halted: steps, t=5",
        *(f"wrote {outdir / name}" for name in names),
    ]
    assert sorted(p.name for p in outdir.iterdir()) == sorted(names)


def test_float_bits_render_as_binary_rows(outdir, monkeypatch):
    # 0.0 and 1.0 are binary data for the CLI as for render_text and PGM
    spec = CATALOG["max"](n=4)
    floats = make_configuration([0.0, 1.0, 1.0, 0.0], (1,), spec.topology)
    monkeypatch.setitem(CATALOG, "max", lambda **_: dataclasses.replace(
        spec, initial=lambda: floats.copy()))
    assert main(["run", "--alg", "max", "--steps", "1"]) == 0
    assert (outdir / "max.txt").read_text() == "   # #  \n # # #  \n"
    assert formats.render_text(floats) == "   # #  \n"
    assert formats.pgm_bytes([floats.data()]).endswith(bytes([255, 0, 0, 255]))


def test_run_csv_format(outdir):
    main(["run", "--alg", "max", "--n", "4", "--steps", "2", "--format", "csv"])
    lines = (outdir / "max.csv").read_text().splitlines()
    assert lines[0] == "gca-trace v1"
    assert lines[1] == "t,i,field,value"


def test_run_variant_and_seed_reach_max(outdir):
    rc = main(["run", "--alg", "max", "--n", "12", "--variant", "random",
               "--seed", "4", "--format", "csv"])
    assert rc == 0
    spec = alg_max(12, pointer_variant="random", seed=4)
    expected = formats.trace_csv(execute(spec, record_states=True).trace)
    assert (outdir / "max.csv").read_bytes() == expected.encode()


STEPS_ENTRIES = [
    name for name in catalog_names()
    if "steps" in inspect.signature(CATALOG[name]).parameters
]


@pytest.mark.parametrize("name", STEPS_ENTRIES)
def test_entry_steps_equals_stop_rule(name):
    # --steps is passed as the stop rule only; an entry's own steps
    # parameter must build nothing else
    for s in (0, 3):
        own = execute(CATALOG[name](steps=s), record_states=True)
        stop = execute(CATALOG[name](), Steps(s), record_states=True)
        assert own.trace.snapshots == stop.trace.snapshots, (name, s)
        assert (own.halt, own.steps) == (stop.halt, stop.steps)


# ---------------------------------------------------------------------------
# exit codes

def test_unknown_algorithm_is_usage_error(outdir, capsys):
    assert main(["run", "--alg", "nope"]) == 1
    assert "unknown algorithm" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_precondition_maps_to_2(outdir, capsys):
    assert main(["run", "--alg", "horn", "--n", "6"]) == 2
    assert "power of two" in capsys.readouterr().err


def test_negative_steps_is_usage_error(outdir, capsys):
    assert main(["run", "--alg", "max", "--n", "8", "--steps", "-1"]) == 1
    assert capsys.readouterr().err == "error: --steps must be >= 0, got -1\n"


def test_stop_and_steps_are_exclusive(outdir, tmp_path, capsys):
    want = "error: --stop and --steps are mutually exclusive\n"
    both = ["--alg", "fire-jump2", "--stop", "fixed-point", "--steps", "5"]
    assert main(["run", *both]) == 1
    assert capsys.readouterr().err == want
    cfg_file = tmp_path / "both.txt"
    cfg_file.write_text(RunConfig(alg="max", n=8, steps=3, stop="fixed-point").to_text())
    assert main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == want
    cfg_file.write_text(RunConfig(alg="max", n=8, stop="fixed-point").to_text())
    assert main(["run", "--config", str(cfg_file), "--steps", "2"]) == 1
    assert capsys.readouterr().err == want
    assert [p.name for p in outdir.iterdir()] == ["both.txt"]


def test_variant_rejected_without_pointer_variant(outdir, capsys):
    assert main(["run", "--alg", "bitonic", "--variant", "basic"]) == 2
    assert "has no variants" in capsys.readouterr().err


def test_n_rejected_by_fft(outdir, capsys):
    assert main(["run", "--alg", "fft", "--n", "16"]) == 2
    assert "does not accept n" in capsys.readouterr().err


def test_async_random_needs_seed(outdir, capsys):
    rc = main(["run", "--alg", "max", "--n", "8", "--mode", "async:random"])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["async:random:abc", "async:random:", "async:ascending:1.5"])
def test_mode_seed_that_is_not_an_integer_is_a_precondition_error(outdir, tmp_path, capsys, mode):
    assert main(["run", "--alg", "max", "--n", "8", "--mode", mode, "--format", "none"]) == 2
    assert capsys.readouterr().err == f"error: update mode {mode!r}: the seed is not an integer\n"
    cfg_file = tmp_path / "mode.txt"
    cfg_file.write_text(f"alg=max\nn=8\nformat=none\nmode={mode}\n")
    assert main(["run", "--config", str(cfg_file)]) == 2
    assert "the seed is not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("order", ["ascending", "descending"])
def test_a_mode_seed_needs_the_random_order(outdir, capsys, order):
    mode = f"async:{order}:5"
    assert main(["run", "--alg", "max", "--mode", mode, "--format", "none"]) == 2
    assert capsys.readouterr().err == f"error: update mode {mode!r}: only async:random takes a seed\n"


def test_seed_reaches_the_entry_not_a_sweep_that_reads_none(outdir):
    rc = main(["run", "--alg", "max", "--n", "12", "--variant", "random", "--seed", "4",
               "--mode", "async:descending", "--format", "csv"])
    assert rc == 0
    spec = alg_max(12, pointer_variant="random", seed=4)
    result = execute(spec, mode="async", order="descending", record_states=True)
    assert (outdir / "max.csv").read_bytes() == formats.trace_csv(result.trace).encode()


def test_async_modes_run(outdir):
    assert main(["run", "--alg", "max", "--n", "8", "--mode", "async:descending",
                 "--format", "none"]) == 0
    assert main(["run", "--alg", "max", "--n", "8", "--mode", "async:random",
                 "--seed", "3", "--format", "none"]) == 0


# ---------------------------------------------------------------------------
# verify

def test_verify_single(capsys):
    assert main(["verify", "xor1d-basic"]) == 0
    assert "pass" in capsys.readouterr().out


def test_verify_all(capsys):
    assert main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    assert "34/34 pass" in out


def test_verify_unknown(capsys):
    assert main(["verify", "wibble"]) == 1


def test_unknown_names_get_one_message(outdir, capsys):
    names = ", ".join(catalog_names())
    for argv, also in ((["run", "--alg"], ""), (["arch", "--alg"], ""), (["verify"], "all, ")):
        assert main([*argv, "wibble"]) == 1
        want = f"error: unknown algorithm 'wibble'; choose from {also}{names}\n"
        assert capsys.readouterr().err == want


# ---------------------------------------------------------------------------
# arch

def test_arch_capacity_table(capsys):
    rc = main(["arch", "--seq", "--n", "256", "--k", "2", "--capacity"])
    assert rc == 0
    assert "36864" in capsys.readouterr().out


def test_arch_dpa_cycles(outdir, capsys):
    rc = main(["arch", "--dpa", "4", "--n", "16"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "7 cycles/generation" in out
    assert (outdir / "arch-schedule.csv").exists()


def test_arch_workload(outdir, capsys):
    rc = main(["arch", "--seq", "--alg", "reduce-sum", "--n", "8", "--k", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "engine-equal: yes" in out
    assert "total: 29 cycles = 24 cycles + 3 latency + 2 switches" in out


def test_arch_workload_builds_one_schedule(tmp_path, monkeypatch, capsys):
    calls = []
    simulate = archsim._simulate

    def counted(params, generations):
        calls.append((params, generations))
        return simulate(params, generations)

    monkeypatch.setattr(archsim, "_simulate", counted)
    argv = ["arch", "--seq", "--alg", "horn", "--n", "32", "--out", str(tmp_path)]
    assert main(argv) == 0
    assert "engine-equal: yes" in capsys.readouterr().out
    assert len(calls) == 1


def test_arch_workload_takes_explicit_generations(outdir, capsys):
    # horn at n=8 runs 3 generations by itself; --generations overrides that
    assert main(["arch", "--seq", "--alg", "horn", "--n", "8", "--generations", "7"]) == 0
    out = capsys.readouterr().out
    assert "horn n=8 on seq: 7 generations" in out
    assert "total: 65 cycles = 56 cycles + 3 latency + 6 switches" in out
    assert main(["arch", "--seq", "--alg", "horn", "--n", "8"]) == 0
    assert "horn n=8 on seq: 3 generations" in capsys.readouterr().out
    assert main(["arch", "--seq", "--n", "8"]) == 0  # no workload: one generation
    assert "total: 11 cycles" in capsys.readouterr().out


def test_arch_unknown_alg(capsys):
    assert main(["arch", "--alg", "nope"]) == 1


def test_arch_explicit_zero_is_kept(outdir, capsys):
    assert main(["arch", "--seq", "--n", "8", "--k", "0", "--capacity"]) == 0
    assert "k=0" in capsys.readouterr().out
    assert main(["arch", "--dpa", "0"]) == 2
    assert "need 1 <= p <= n" in capsys.readouterr().err
    assert main(["arch", "--seq", "--k", "0"]) == 2
    assert "needs k >= 1" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# render

def test_render_text_and_pgm(outdir, tmp_path):
    from gca.algorithms import alg_xor2d
    from gca import execute, formats

    res = execute(alg_xor2d(8, "r1", steps=0), record_states=True)
    indir = tmp_path / "in"
    indir.mkdir()
    snap = indir / "snap.txt"
    snap.write_text(formats.snapshot_dump(res.config, variant="general"))

    assert main(["render", str(snap)]) == 0
    assert (outdir / "snap.txt").read_text().count("#") == 5

    assert main(["render", str(snap), "--format", "pgm", "--tile2"]) == 0
    img = (outdir / "snap.pgm").read_bytes()
    assert img.startswith(b"P5\n16 16\n255\n")


def test_render_explicit_output(outdir, tmp_path):
    from gca import Topology, formats, make_configuration

    cfg = make_configuration([0, 1, 1, 0], (1,), Topology.torus(2, 2))
    snap = tmp_path / "grid.txt"
    snap.write_text(formats.snapshot_dump(cfg))
    target = tmp_path / "picked.pgm"
    assert main(["render", str(snap), "--format", "pgm", "-o", str(target)]) == 0
    assert target.read_bytes().startswith(b"P5\n2 2\n")


@pytest.mark.parametrize("body, problem", [
    ("{not json", "not valid JSON"),
    ('{"topology": [2]}', "'states' list"),
    ('{"states": 5, "topology": [2]}', "'states' list"),
    ('{"states": [{"d": 0, "p": []}]}', "'topology' list"),
    ('{"states": [{"d": 0, "p": []}], "topology": ["x"]}', "integer sides"),
    ('{"topology": [2], "states": [{"d": 0, "p": []}, {"d": 1}]}', "state 1"),
])
def test_render_malformed_snapshot(outdir, tmp_path, capsys, body, problem):
    snap = tmp_path / "bad.txt"
    snap.write_text(formats.TRACE_HEADER + "\n" + body + "\n")
    assert main(["render", str(snap)]) == 2
    assert problem in capsys.readouterr().err


def test_render_rejects_the_rows_of_a_text_run(outdir, capsys):
    # gca run --format text writes rendered rows, not a snapshot
    assert main(["run", "--alg", "xor2d-r1", "--format", "text"]) == 0
    capsys.readouterr()
    assert main(["render", str(outdir / "xor2d-r1.txt")]) == 2
    assert "'gca-trace v1' header" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# config replay and determinism

def test_config_file_flags_win(outdir, tmp_path, capsys):
    cfg_file = tmp_path / "replay.txt"
    cfg_file.write_text(RunConfig(alg="max", n=8, steps=7, format="none").to_text())
    rc = main(["run", "--config", str(cfg_file), "--steps", "2"])
    assert rc == 0
    assert "max: 2 steps" in capsys.readouterr().out


def test_every_run_flag_wins_over_the_config(tmp_path, monkeypatch):
    # every RunConfig field is a `gca run` flag
    file_cfg = RunConfig(
        alg="max", n=8, variant="inc", mode="sync", steps=3, format="text",
        seed=1, pointers=False, edges=False, out=str(tmp_path / "a"),
    )
    flags = {
        "alg": "horn", "n": 16, "variant": "double",
        "mode": "async:ascending", "steps": 2, "stop": "fixed-point", "format": "csv",
        "seed": 2, "pointers": True, "edges": True, "out": str(tmp_path / "b"),
    }
    assert sorted(flags) == sorted(f.name for f in dataclasses.fields(RunConfig))
    cfg_file = tmp_path / "replay.txt"
    cfg_file.write_text(file_cfg.to_text())
    argv = ["run", "--config", str(cfg_file)]
    for key, value in flags.items():
        argv += [f"--{key}"] if value is True else [f"--{key}", str(value)]
    seen = []
    monkeypatch.setattr(cli, "cmd_run", lambda cfg: seen.append(cfg) or 0)
    assert main(argv) == 0
    assert seen == [dataclasses.replace(file_cfg, **flags)]


def test_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("alg=max\nwat\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert "bad config" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.txt")]) == 1


@pytest.mark.parametrize("key", ["stop", "format", "n", "steps", "seed"])
def test_config_values_checked_like_the_flags(outdir, tmp_path, capsys, key):
    # a value outside the flag's choices is a usage error from either source,
    # with the flag's message; from a file it stops the run before anything
    # is written
    assert main(["run", "--alg", "max", f"--{key}", "bogus"]) == 1
    flag_error = capsys.readouterr().err.splitlines()[-1].partition("error: ")[2]
    assert flag_error.startswith(f"argument --{key}: invalid ")
    out = tmp_path / "out"
    cfg_file = tmp_path / "bogus.txt"
    cfg_file.write_text(f"alg=max\nn=8\nout={out}\n{key}=bogus\n")
    assert main(["run", "--config", str(cfg_file)]) == 1
    assert capsys.readouterr().err == f"error: bad config file: line 4: {flag_error}\n"
    assert not out.exists()


def test_config_accepts_every_flag_choice():
    for v in STOP_CHOICES:
        assert RunConfig.from_text(f"stop={v}\n").stop == v
    for v in FORMAT_CHOICES:
        assert RunConfig.from_text(f"format={v}\n").format == v


def test_identical_configs_give_identical_artifacts(tmp_path, monkeypatch):
    def run_into(sub):
        monkeypatch.setenv(OUT_DIR_ENV, str(sub))
        rc = main(["run", "--alg", "xor1d-basic", "--n", "31", "--steps", "5",
                   "--pointers", "--edges"])
        assert rc == 0
        return {
            p.name: p.read_bytes() for p in sub.iterdir() if p.is_file()
        }

    a = run_into(tmp_path / "a")
    b = run_into(tmp_path / "b")
    assert a == b


# ---------------------------------------------------------------------------
# module entry point

def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "gca.cli", "verify", "max"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "pass" in proc.stdout
