"""Command-line behavior: artifacts, exit codes, config replay."""

import subprocess
import sys

import pytest

from gca.cli import OUT_DIR_ENV, RunConfig, main
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


def test_run_pointer_rows(outdir):
    main(["run", "--alg", "xor1d-basic", "--n", "31", "--steps", "5", "--pointers"])
    assert (outdir / "xor1d-basic-p1.txt").exists()
    assert (outdir / "xor1d-basic-p2.txt").exists()


def test_run_csv_format(outdir):
    main(["run", "--alg", "max", "--n", "4", "--steps", "2", "--format", "csv"])
    lines = (outdir / "max.csv").read_text().splitlines()
    assert lines[0] == "gca-trace v1"
    assert lines[1] == "t,i,field,value"


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
    assert "--steps" in capsys.readouterr().err


def test_async_random_needs_seed(outdir, capsys):
    rc = main(["run", "--alg", "max", "--n", "8", "--mode", "async:random"])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


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


def test_arch_unknown_alg(capsys):
    assert main(["arch", "--alg", "nope"]) == 1


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


# ---------------------------------------------------------------------------
# config replay and determinism

def test_config_file_flags_win(outdir, tmp_path, capsys):
    cfg_file = tmp_path / "replay.txt"
    cfg_file.write_text(RunConfig(alg="max", n=8, steps=7, format="none").to_text())
    rc = main(["run", "--config", str(cfg_file), "--steps", "2"])
    assert rc == 0
    assert "max: 2 steps" in capsys.readouterr().out


def test_bad_config_file(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("alg=max\nwat\n")
    assert main(["run", "--config", str(bad)]) == 1
    assert "bad config" in capsys.readouterr().err
    assert main(["run", "--config", str(tmp_path / "missing.txt")]) == 1


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
