"""Command-line interface tests: exit codes, artifacts, loopback transport."""

import json
import os
import socket
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from ndcsim import cli, errors, presets, simulate, tagio
from ndcsim.cli import main
from ndcsim.config import dump_config
from ndcsim.errors import (ConfigError, FitError, NdcError, NoPeakError, ParameterError,
                           TagFormatError, TransportError)
from ndcsim.reproduce import ReproduceReport, reproduce


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """One short jitter-floor simulation shared by the command tests."""
    d = tmp_path_factory.mktemp("cli")
    cfg_path = d / "run.cfg"
    cfg_path.write_text(dump_config(presets.fig2a_config(duration_s=1.0)))
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(d / "run"), "--seed", "7"])
    assert rc == 0
    return d


class TestSimulate:
    def test_outputs_and_manifest(self, sim_dir):
        for suffix in ("a.tags", "b.tags", "manifest.json"):
            assert (sim_dir / f"run_{suffix}").exists()
        manifest = json.loads((sim_dir / "run_manifest.json").read_text())
        assert manifest["seed"] == 7
        assert manifest["config"]["run"]["duration_s"] == 1.0
        assert manifest["tags"]["a"] > 0

    def test_repeat_seed_identical_files(self, sim_dir, tmp_path):
        rc = main(["simulate", "--config", str(sim_dir / "run.cfg"),
                   "--out", str(tmp_path / "again"), "--seed", "7"])
        assert rc == 0
        for suffix in ("a", "b"):
            assert ((tmp_path / f"again_{suffix}.tags").read_bytes()
                    == (sim_dir / f"run_{suffix}.tags").read_bytes())

    def test_missing_key_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(dump_config(presets.fig2a_config()).replace("pair_rate_hz", "pare_rate_hz"))
        rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "pair_rate_hz" in capsys.readouterr().err

    def test_duration_out_of_range_exit_2(self, tmp_path, capsys):
        # RunSpec rejects the duration, so the preset is edited as text.
        cfg = tmp_path / "long.cfg"
        text = dump_config(presets.fig2a_config(duration_s=1.0))
        cfg.write_text(text.replace("duration_s = 1.0", "duration_s = 100000.0"))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "invalid parameter: duration exceeds" in capsys.readouterr().err

    def test_nan_duration_exit_2(self, tmp_path, capsys):
        # RunSpec rejects nan, so the preset is edited as text.
        cfg = tmp_path / "nan.cfg"
        text = dump_config(presets.fig2a_config(duration_s=1.0))
        cfg.write_text(text.replace("duration_s = 1.0", "duration_s = nan"))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "invalid parameter: duration_s must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["jitter_fwhm_ps", "dark_rate_hz", "dead_time_ns",
                                     "pair_rate_hz"],
                             ids=["jitter", "dark_rate", "dead_time", "pair_rate"])
    def test_nan_parameter_exit_2(self, tmp_path, capsys, key):
        # The first line of the key: [source] or [detector_a].
        text = dump_config(presets.fig2a_config(duration_s=1.0))
        line = next(ln for ln in text.splitlines() if ln.startswith(f"{key} = "))
        cfg = tmp_path / "nan.cfg"
        cfg.write_text(text.replace(line, f"{key} = nan", 1))
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"invalid parameter: {key} must be >= 0 and finite, got nan" in err
        assert not (tmp_path / "x_a.tags").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_exit_2(self, tmp_path, capsys, value):
        # Every numeric key of all eight sections; the integer [timer_*] keys
        # fail to parse, every other key fails its range check.
        lines = dump_config(presets.fig2a_config(duration_s=0.1)).splitlines()
        section, edited = None, []
        for i, line in enumerate(lines):
            if line.startswith("["):
                section = line
            elif " = " in line:
                key = line.partition(" = ")[0]
                cfg = tmp_path / f"{section[1:-1]}_{key}.cfg"
                cfg.write_text("\n".join(lines[:i] + [f"{key} = {value}"] + lines[i + 1:]))
                out = tmp_path / cfg.stem
                rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
                err = capsys.readouterr().err
                assert rc == 2, f"{section} {key} = {value}"
                assert key in err, err
                expected = "not an integer" if section.startswith("[timer") else "invalid parameter"
                assert expected in err, err
                assert not (tmp_path / f"{cfg.stem}_a.tags").exists()
                edited.append(key)
        assert len(edited) == 28

    @pytest.mark.parametrize("line, bounds", [
        ("site_id = -1", "[0, 4294967295]"),
        ("site_id = 4294967296", "[0, 4294967295]"),
        ("resolution_fs = 18446744073709551616", "[1, 9223372036854775807]"),
        (f"clock_offset_fs = {10**400}", "[-9223372036854775807, 9223372036854775807]"),
    ], ids=["site_id_negative", "site_id_past_uint32", "resolution_fs", "clock_offset_fs"])
    def test_timer_integer_outside_its_field_exit_2(self, tmp_path, capsys, line, bounds):
        # site_id is the header's uint32 field; tags and their tick are int64.
        key = line.partition(" = ")[0]
        text = dump_config(presets.fig2a_config(duration_s=0.1))
        head, _, timer_b = text.partition("[timer_b]")
        old = next(ln for ln in timer_b.splitlines() if ln.startswith(f"{key} = "))
        cfg = tmp_path / "timer.cfg"
        cfg.write_text(f"{head}[timer_b]{timer_b.replace(old, line)}")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert f"invalid parameter: {key} must be in {bounds}" in capsys.readouterr().err
        assert list(tmp_path.glob("x_*")) == []

    def test_negative_seed_exit_2(self, sim_dir, tmp_path, capsys):
        rc = main(["simulate", "--config", str(sim_dir / "run.cfg"),
                   "--out", str(tmp_path / "x"), "--seed", "-1"])
        assert rc == 2
        assert "invalid parameter: seed must be >= 0" in capsys.readouterr().err
        assert list(tmp_path.glob("x_*")) == []

    def test_missing_config_exit_2(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "absent.cfg"),
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_failure_mid_run_leaves_no_tag_file(self, tmp_path, capsys, monkeypatch):
        # Two 5 s blocks; the third digitize call is the second block's first,
        # made after block 0's tags went to both files.
        cfg = tmp_path / "two_blocks.cfg"
        cfg.write_text(dump_config(presets.fig2d_config(duration_s=6.0)))
        digitize, calls = simulate.digitize, []

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise ParameterError("injected")
            return digitize(*args)

        monkeypatch.setattr(simulate, "digitize", failing)
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "invalid parameter: injected" in capsys.readouterr().err
        assert len(calls) == 3
        assert list(tmp_path.glob("x_*")) == []

    def test_unwritable_out_exit_2(self, sim_dir, tmp_path, capsys):
        rc = main(["simulate", "--config", str(sim_dir / "run.cfg"),
                   "--out", str(tmp_path / "absent" / "x")])
        assert rc == 2
        assert "invalid parameter: cannot write" in capsys.readouterr().err


class TestCorrelateAnalyze:
    def test_correlate_writes_histogram(self, sim_dir, capsys):
        rc = main(["correlate", str(sim_dir / "run_a.tags"), str(sim_dir / "run_b.tags"),
                   "--out", str(sim_dir / "hist.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "recovered_offset_fs" in out
        assert "fwhm_ps" in out
        assert (sim_dir / "hist.csv").exists()

    def test_unwritable_out_exit_2(self, sim_dir, tmp_path, capsys):
        rc = main(["correlate", str(sim_dir / "run_a.tags"), str(sim_dir / "run_b.tags"),
                   "--out", str(tmp_path / "absent" / "hist.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert "invalid parameter: cannot write" in captured.err
        assert "recovered_offset_fs" not in captured.out

    def test_analyze_histogram_csv(self, sim_dir, capsys):
        rc = main(["analyze", str(sim_dir / "hist.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sigma_ps" in out
        assert "deviance_per_dof = " in out

    def test_bad_tag_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tags"
        bad.write_bytes(tagio.MAGIC + bytes(14))
        rc = main(["correlate", str(bad), str(bad)])
        assert rc == 2
        assert "bad tag data" in capsys.readouterr().err

    @pytest.mark.parametrize("resolution_fs", [2**63, 2**64 - 1])
    def test_absurd_resolution_exit_2(self, sim_dir, tmp_path, resolution_fs):
        # b's header claims a tick beyond int64, which used to end in an
        # OverflowError traceback and exit 1
        raw = bytearray((sim_dir / "run_b.tags").read_bytes())
        raw[14:22] = resolution_fs.to_bytes(8, "little")
        bad = tmp_path / "bad.tags"
        bad.write_bytes(raw)
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        run = subprocess.run([sys.executable, "-m", "ndcsim.cli", "correlate",
                              str(sim_dir / "run_a.tags"), str(bad)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 2
        assert f"bad tag data: timer resolution must be <= 2**63 - 1 fs, got {resolution_fs}" \
            in run.stderr
        assert "Traceback" not in run.stderr

    def test_positive_mode_exit_0(self, tmp_path, capsys):
        # A classical peak of about 5 ns: the histogram is sized from it.
        cfg_path = tmp_path / "positive.cfg"
        cfg_path.write_text(dump_config(presets.fig2d_config(mode=1.0, duration_s=2.0)))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "pos")]) == 0
        rc = main(["correlate", str(tmp_path / "pos_a.tags"), str(tmp_path / "pos_b.tags")])
        assert rc == 0
        assert "fwhm_ps" in capsys.readouterr().out

    @pytest.mark.parametrize("span", ["nan", "inf", "0", "1e7"])
    def test_search_span_not_finite_and_positive_exit_2(self, sim_dir, span, capsys):
        # beyond 9223372.036853 ms half the span would leave int64 femtoseconds
        rc = main(["correlate", str(sim_dir / "run_a.tags"), str(sim_dir / "run_b.tags"),
                   "--search-span-ms", span])
        assert rc == 2
        assert "search_span_ms must be in (0, 9223372.036853], got" in capsys.readouterr().err

    @pytest.mark.parametrize("command, files, flag, value, message", [
        ("correlate", 2, "--search-span-ms", "0",
         "search_span_ms must be in (0, 9223372.036853], got 0.0"),
        ("wasak", 4, "--search-span-ms", "0",
         "search_span_ms must be in (0, 9223372.036853], got 0.0"),
        ("wasak", 4, "--two-beta-l", "-1", "two_beta_l_ps2 must be >= 0 and finite, got -1.0")],
        ids=["correlate-span", "wasak-span", "wasak-two-beta-l"])
    def test_flag_checked_before_any_read(self, tmp_path, capsys, command, files, flag, value,
                                          message):
        # the tag paths are absent: a read would be refused as "cannot read"
        paths = [str(tmp_path / f"absent_{i}.tags") for i in range(files)]
        assert main([command, *paths, flag, value]) == 2
        assert capsys.readouterr().err == f"invalid parameter: {message}\n"

    def test_terminal_search_span_checked_before_listening(self, tmp_path, capsys, monkeypatch):
        def listen(**kwargs):
            raise AssertionError("the terminal listened before checking --search-span-ms")

        monkeypatch.setattr(tagio, "Terminal", listen)
        rc = main(["terminal", "--port", "0", "--out", str(tmp_path / "term"),
                   "--search-span-ms", "0"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err == ("invalid parameter: search_span_ms must be in "
                                "(0, 9223372.036853], got 0.0\n")
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_missing_tag_file_exit_2(self, sim_dir, tmp_path, capsys):
        rc = main(["correlate", str(sim_dir / "run_a.tags"), str(tmp_path / "absent.tags")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_analyze_missing_csv_exit_2(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "absent.csv")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_analyze_non_numeric_csv_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("bin_center_ps,counts,g2_normalized\n1.0,x,1\n2.0,3,1\n")
        rc = main(["analyze", str(bad)])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("defect", [None, "rounded", "jump", "nan_center",
                                        "fractional_count", "huge_count", "one_column"])
    def test_analyze_csv_geometry(self, tmp_path, capsys, defect):
        # A 4 ps-bin Gaussian peak, as built, rebinned and rounded as
        # write_histogram_csv rounds, or with one defect that is bad input.
        centers = 4.0 * np.arange(80)
        counts = np.round(5 + 200 * np.exp(-0.5 * ((centers - 160) / 10) ** 2))
        columns = [centers, counts, counts / 5]
        if defect == "rounded":  # 13/3 ps bins written to 1e-6 ps, as correlate does
            centers[:] = np.round(centers * 13 / 12, 6)
        elif defect == "jump":
            centers[40:] += 100
        elif defect == "nan_center":
            centers[10] = np.nan
        elif defect == "fractional_count":
            counts[30] = 3.7
        elif defect == "huge_count":  # beyond int64: an unchecked cast warned and wrapped
            counts[30] = 1e20
        elif defect == "one_column":
            del columns[1:]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["analyze", str(_write_csv(tmp_path / "h.csv", *columns))])
        err = capsys.readouterr().err
        if defect in (None, "rounded"):
            assert rc == 0
        else:
            assert rc == 2
            assert err.startswith(f"invalid parameter: cannot read {tmp_path / 'h.csv'}")
        if defect == "huge_count":
            assert err.endswith("counts must be in [0, 2^63), got 1e+20\n")

    def test_analyze_flat_csv_exit_4(self, tmp_path, capsys):
        csv = _write_csv(tmp_path / "flat.csv", 4.0 * np.arange(20), np.full(20, 5), np.ones(20))
        rc = main(["analyze", str(csv)])
        assert rc == 4
        assert capsys.readouterr().err.startswith("fit failed: no significant peak")

    def test_independent_streams_exit_3(self, sim_dir, tmp_path, capsys):
        rc = main(["simulate", "--config", str(sim_dir / "run.cfg"),
                   "--out", str(tmp_path / "other"), "--seed", "8"])
        assert rc == 0
        rc = main(["correlate", str(sim_dir / "run_a.tags"),
                   str(tmp_path / "other_b.tags")])
        assert rc == 3
        assert "no peak" in capsys.readouterr().err


def _zero_span(src, dst):
    """Copy tag file ``src`` to ``dst`` with the header's acquisition span, its
    last 8 bytes, set to 0."""
    raw = bytearray(Path(src).read_bytes())
    raw[tagio.HEADER_SIZE - 8:tagio.HEADER_SIZE] = bytes(8)
    dst.write_bytes(raw)
    return str(dst)


class TestZeroSpan:
    """Tag files whose header spans are 0: the peak needs no span, g2 does."""

    @pytest.fixture
    def zero(self, sim_dir, tmp_path):
        return [_zero_span(sim_dir / f"run_{arm}.tags", tmp_path / f"zero_{arm}.tags")
                for arm in "ab"]

    def test_fit_printed_without_out(self, sim_dir, zero, capsys):
        assert main(["correlate", str(sim_dir / "run_a.tags"), str(sim_dir / "run_b.tags")]) == 0
        expected = capsys.readouterr().out
        assert main(["correlate", *zero]) == 0
        captured = capsys.readouterr()
        assert "fwhm_ps = " in captured.out
        assert captured.out == expected
        assert captured.err == ""

    @pytest.mark.parametrize("zeroed, named", [("ab", "a"), ("b", "b")], ids=["both", "one"])
    def test_csv_refused(self, sim_dir, zero, tmp_path, capsys, zeroed, named):
        paths = [zero[i] if arm in zeroed else str(sim_dir / f"run_{arm}.tags")
                 for i, arm in enumerate("ab")]
        rc = main(["correlate", *paths, "--out", str(tmp_path / "h.csv")])
        assert rc == 2
        captured = capsys.readouterr()
        assert (f"invalid parameter: acquisition_span_fs of stream {named} must be > 0"
                in captured.err)
        assert "fwhm_ps" not in captured.out
        assert "recovered_offset_fs" not in captured.out
        assert not (tmp_path / "h.csv").exists()


def _write_csv(path, *columns):
    rows = zip(*(c.tolist() for c in columns))
    path.write_text("bin_center_ps,counts,g2_normalized\n"
                    + "".join(",".join(map(repr, row)) + "\n" for row in rows))
    return path


@pytest.fixture(scope="module")
def tag_files(sim_dir):
    """Jitter-floor (before) and 62 km / 7.47 km (after) tag file paths."""
    cfg_path = sim_dir / "disp.cfg"
    cfg_path.write_text(dump_config(presets.fig2d_config(duration_s=2.0)))
    rc = main(["simulate", "--config", str(cfg_path), "--out", str(sim_dir / "disp"),
               "--seed", "7"])
    assert rc == 0
    return [str(sim_dir / name) for name in ("run_a.tags", "run_b.tags",
                                             "disp_a.tags", "disp_b.tags")]


def _loopback(tag_paths, out, *flags):
    """Run a terminal with the given flags on a free port and send it each
    tag file from a site; return the sites' and the terminal's exit codes."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    result = {}

    def run_terminal():
        result["rc"] = main(["terminal", "--port", str(port), "--out", str(out), *flags])

    t = threading.Thread(target=run_terminal)
    t.start()
    sites = []
    for path in tag_paths:
        # retry the first send until the terminal socket is listening
        for _ in range(50 if not sites else 1):
            rc = main(["site", "--terminal", f"127.0.0.1:{port}", "--tags", str(path)])
            if rc == 0:
                break
            time.sleep(0.1)
        sites.append(rc)
    t.join(timeout=60)
    assert not t.is_alive()
    return sites, result["rc"]


class TestWasak:
    def test_verdict_printed(self, tag_files, capsys):
        capsys.readouterr()
        rc = main(["wasak", *tag_files])
        assert rc == 0
        out = capsys.readouterr().out
        assert "W = " in out
        assert "violated = true" in out

    def test_missing_tag_file_exit_2(self, tag_files, tmp_path, capsys):
        rc = main(["wasak", *tag_files[:3], str(tmp_path / "absent.tags")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_search_span_applied(self, tag_files, capsys):
        # The dispersed pair's offset is -266 us, outside a 0.1 ms search span.
        rc = main(["wasak", *tag_files, "--search-span-ms", "0.1"])
        assert rc == 3
        assert "no peak" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_two_beta_l_exit_2(self, tag_files, capsys, value):
        rc = main(["wasak", *tag_files, "--two-beta-l", value])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"two_beta_l_ps2 must be >= 0 and finite, got {value}" in captured.err
        assert "violated" not in captured.out


class TestReproduce:
    def test_fig2a_smoke(self, capsys):
        rc = main(["reproduce", "fig2a", "--seed", "0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_fig2d_passes_with_prediction(self):
        report = reproduce("fig2d", seed=0)
        assert report.passed
        assert "analytic prediction = 107.3 ps" in report.lines

    def test_nan_scale_exit_2(self, capsys):
        assert main(["reproduce", "fig2a", "--scale", "nan"]) == 2
        assert "scale must be > 0" in capsys.readouterr().err

    def test_negative_seed_exit_2(self, capsys):
        assert main(["reproduce", "fig2a", "--seed", "-1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_unknown_target_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig9"])

    RUNS = ["reproduce", "fig2a", "fig2d", "--seed", "0", "1", "--scale", "0.2"]

    def test_targets_by_seeds(self, capsys):
        # A 1 s fig2d run's FWHM carries about 4 ps of error against its
        # 102..112 ps window: at seed 1 it reads 113.16 ps and fails.
        runs = [(target, seed) for target in ("fig2a", "fig2d") for seed in (0, 1)]
        reports = [reproduce(target, seed=seed, scale=0.2) for target, seed in runs]
        failed = sum(not report.passed for report in reports)
        assert failed == 1
        assert main(self.RUNS) == 1
        captured = capsys.readouterr()
        assert captured.out == ("".join(f"seed {seed} {report.text()}\n"
                                        for (_, seed), report in zip(runs, reports))
                                + "1 of 4 reproductions failed\n")
        timings = captured.err.splitlines()
        assert len(timings) == 4
        for line, (target, seed) in zip(timings, runs):
            assert line.startswith(f"{target} seed {seed}: ") and line.endswith(" s")

    def test_failed_runs_counted(self, capsys, monkeypatch):
        def failing(target, seed, scale):
            return ReproduceReport(target=target, passed=False, lines=["injected"])

        monkeypatch.setattr(cli, "reproduce", failing)
        assert main(self.RUNS) == 1
        out = capsys.readouterr().out
        assert out.count("[FAIL]") == 4
        assert out.endswith("\n4 of 4 reproductions failed\n")

    def test_seeds_checked_before_any_run(self, capsys):
        assert main(["reproduce", "fig2a", "--seed", "0", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid parameter: seed must be >= 0 and finite, got -1\n"


# The documented exit code and stderr label of each family of package errors.
DOCUMENTED_EXITS = {ConfigError: (2, "config error"), ParameterError: (2, "invalid parameter"),
                    TagFormatError: (2, "bad tag data"), NoPeakError: (3, "no peak"),
                    FitError: (4, "fit failed"), TransportError: (5, "transport error")}


def _error_classes(base=NdcError):
    for cls in base.__subclasses__():
        if cls.__module__ == errors.__name__:
            yield cls
            yield from _error_classes(cls)


@pytest.mark.parametrize("error", sorted(set(_error_classes()), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_every_error_class_ends_with_its_documented_code(error, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(cli, "reproduce", failing)
    code, label = next(v for cls, v in DOCUMENTED_EXITS.items() if issubclass(error, cls))
    assert main(["reproduce", "fig2a"]) == code
    assert capsys.readouterr().err == f"{label}: injected\n"


SRC = Path(__file__).resolve().parents[1] / "src"

# A finder that refuses scipy, as an environment without it would.
_REFUSE_SCIPY = """
import importlib.abc, sys
class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
sys.meta_path.insert(0, RefuseScipy())
"""


def _python(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


# Simulates the fig2d config at 100 s (20 blocks) in a fresh process and
# prints the exit code and the process's peak RSS (VmHWM) in KiB.
_SIMULATE_PEAK = """
import sys
from ndcsim.cli import main
rc = main(["simulate", "--config", sys.argv[1], "--out", sys.argv[2]])
with open("/proc/self/status") as f:
    print(rc, next(int(line.split()[1]) for line in f if line.startswith("VmHWM:")))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_long_simulation_memory_is_bounded(tmp_path):
    # One block's pairs at a time: the whole-run simulation peaked at 159 MB.
    cfg = tmp_path / "long.cfg"
    cfg.write_text(dump_config(presets.fig2d_config(duration_s=100.0)))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", _SIMULATE_PEAK, str(cfg), str(tmp_path / "x")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    rc, peak_kib = run.stdout.split("\n")[-2].split()
    assert rc == "0"
    assert int(peak_kib) < 100 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc/self/status")
def test_simulation_memory_is_flat_in_the_duration(tmp_path):
    # Each block's tags go to the files as it is simulated: before, 100 s
    # peaked at 65-83 MB against about 45 MB for 10 s.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    peaks = []
    for duration in (10.0, 100.0):
        cfg = tmp_path / f"{duration}.cfg"
        cfg.write_text(dump_config(presets.fig2d_config(duration_s=duration)))
        run = subprocess.run([sys.executable, "-c", _SIMULATE_PEAK, str(cfg), str(tmp_path / "x")],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        rc, peak_kib = run.stdout.split("\n")[-2].split()
        assert rc == "0"
        peaks.append(int(peak_kib))
    assert peaks[1] - peaks[0] < 4 * 1024, peaks


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_quietly(unbuffered):
    # `ndcsim reproduce fig2a | head -1` with the reader gone before the
    # first write: exit 1, and no BrokenPipeError traceback, whether the
    # write fails in print (unbuffered) or in the flush before exit.
    read_end, write_end = os.pipe()
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen([sys.executable, "-m", "ndcsim.cli", "reproduce", "fig2a",
                             "--seed", "1"], env=env, stdout=write_end,
                            stderr=subprocess.PIPE, text=True)
    os.close(write_end)
    os.close(read_end)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert "Traceback" not in err
    assert "Exception ignored" not in err


class TestRunTimeDependencies:
    def test_import_loads_no_scipy(self):
        run = _python("import sys, ndcsim, ndcsim.cli, ndcsim.reproduce\n"
                      "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"

    def test_reproduce_runs_without_scipy(self, capsys):
        assert main(["reproduce", "fig2a", "--seed", "0"]) == 0
        expected = capsys.readouterr().out
        run = _python(_REFUSE_SCIPY + "from ndcsim.cli import main\n"
                      "sys.exit(main(['reproduce', 'fig2a', '--seed', '0']))\n")
        assert run.returncode == 0, run.stderr
        assert run.stdout == expected


class TestTransport:
    def test_site_terminal_loopback(self, sim_dir, tmp_path):
        sites, rc = _loopback([sim_dir / "run_a.tags", sim_dir / "run_b.tags"],
                              tmp_path / "term")
        assert sites == [0, 0]
        assert rc == 0
        assert (tmp_path / "term_hist.csv").exists()
        back = tagio.read_tags(tmp_path / "term_a.tags")
        assert back == tagio.read_tags(sim_dir / "run_a.tags")

    def test_terminal_search_span_applied(self, tag_files, tmp_path, capsys):
        # The dispersed pair's offset is -266 us, outside a 0.1 ms search span.
        sites, rc = _loopback(tag_files[2:], tmp_path / "term", "--search-span-ms", "0.1")
        assert sites == [0, 0]
        assert rc == 3
        assert "no peak" in capsys.readouterr().err

    def test_unwritable_out_exit_2(self, sim_dir, tmp_path, capsys):
        # First no output can be written, then only the histogram CSV cannot.
        (tmp_path / "dir_hist.csv").mkdir()
        for prefix in (tmp_path / "absent" / "term", tmp_path / "dir"):
            sites, rc = _loopback([sim_dir / "run_a.tags", sim_dir / "run_b.tags"], prefix)
            assert sites == [0, 0]
            assert rc == 2
            captured = capsys.readouterr()
            assert "invalid parameter: cannot write" in captured.err
            assert "recovered_offset_fs" not in captured.out

    def test_malformed_stream_exit_2(self, tmp_path, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        result = {}

        def run_terminal():
            result["rc"] = main(["terminal", "--port", str(port),
                                 "--out", str(tmp_path / "term")])

        t = threading.Thread(target=run_terminal)
        t.start()
        for _ in range(50):
            try:
                sock = socket.create_connection(("127.0.0.1", port))
                break
            except OSError:
                time.sleep(0.1)
        with sock:
            sock.sendall(tagio.pack_header(0, 1000, 1, 0) + bytes(9))
            sock.shutdown(socket.SHUT_WR)
        t.join(timeout=60)
        assert result["rc"] == 2
        assert "past the header's 1 tags" in capsys.readouterr().err

    def test_site_missing_tag_file_exit_2(self, tmp_path, capsys):
        rc = main(["site", "--terminal", "127.0.0.1:1", "--tags", str(tmp_path / "absent.tags")])
        assert rc == 2
        assert "cannot read" in capsys.readouterr().err

    def test_site_without_port_exit_2(self, sim_dir, capsys):
        rc = main(["site", "--terminal", "localhost", "--tags", str(sim_dir / "run_a.tags")])
        assert rc == 2
        assert "invalid parameter: --terminal must be host:port" in capsys.readouterr().err

    @pytest.mark.parametrize("port", ["70000", "-1"])
    def test_terminal_port_out_of_range_exit_2(self, tmp_path, capsys, port):
        rc = main(["terminal", "--port", port, "--out", str(tmp_path / "term")])
        assert rc == 2
        assert f"port must be in [0, 65535], got {port}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_site_port_out_of_range_exit_2(self, sim_dir, capsys):
        rc = main(["site", "--terminal", "127.0.0.1:70000", "--tags", str(sim_dir / "run_a.tags")])
        assert rc == 2
        assert "port must be in [0, 65535], got 70000" in capsys.readouterr().err

    def test_no_terminal_exit_5(self, sim_dir, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        rc = main(["site", "--terminal", f"127.0.0.1:{free_port}",
                   "--tags", str(sim_dir / "run_a.tags")])
        assert rc == 5
        assert "transport error" in capsys.readouterr().err
