"""Tests for the command-line toolchain (repro.tools)."""

import subprocess
import sys

import pytest

from repro.tools import main
from repro.workloads.rtlib import prologue, rt_exit

HELLO = prologue() + "    mov x0, #7\n" + rt_exit()
UNSAFE = prologue() + "    ldr x0, [x1]\n" + rt_exit()


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(HELLO)
    return path


@pytest.fixture
def unsafe_asm(tmp_path):
    path = tmp_path / "unsafe.s"
    path.write_text(UNSAFE)
    return path


class TestRewrite:
    def test_rewrite_to_file(self, tmp_path, unsafe_asm):
        out = tmp_path / "out.s"
        assert main(["rewrite", str(unsafe_asm), "-o", str(out)]) == 0
        text = out.read_text()
        assert "[x21, w1, uxtw]" in text

    def test_rewrite_o0(self, tmp_path, unsafe_asm):
        out = tmp_path / "o0.s"
        assert main(["rewrite", str(unsafe_asm), "-O", "O0",
                     "-o", str(out)]) == 0
        assert "add x18, x21, w1, uxtw" in out.read_text()

    def test_rewrite_rejects_svc(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("svc #0\n")
        assert main(["rewrite", str(bad)]) == 1
        assert "rewrite error" in capsys.readouterr().err

    def test_stdout_output(self, unsafe_asm, capsys):
        assert main(["rewrite", str(unsafe_asm)]) == 0
        assert "uxtw" in capsys.readouterr().out


class TestCompileVerifyRun:
    def test_pipeline(self, tmp_path, asm_file, capsys):
        elf = tmp_path / "prog.elf"
        assert main(["compile", str(asm_file), "-o", str(elf)]) == 0
        assert elf.read_bytes()[:4] == b"\x7fELF"

        assert main(["verify", str(elf)]) == 0
        assert "OK" in capsys.readouterr().out

        code = main(["run", str(elf)])
        assert code == 7

    def test_native_compile_fails_verification(self, tmp_path, unsafe_asm,
                                               capsys):
        elf = tmp_path / "native.elf"
        assert main(["compile", str(unsafe_asm), "--native",
                     "-o", str(elf)]) == 0
        assert main(["verify", str(elf)]) == 1
        assert "unguarded base" in capsys.readouterr().err

    def test_run_unverified_native(self, tmp_path, asm_file):
        elf = tmp_path / "n.elf"
        main(["compile", str(asm_file), "--native", "-o", str(elf)])
        assert main(["run", str(elf), "--unsafe-no-verify"]) == 7

    def test_run_with_machine_model(self, tmp_path, asm_file, capsys):
        elf = tmp_path / "m.elf"
        main(["compile", str(asm_file), "-o", str(elf)])
        assert main(["run", str(elf), "--machine", "apple-m1",
                     "--stats"]) == 7
        assert "cycles" in capsys.readouterr().err

    def test_verify_no_loads_policy(self, tmp_path, unsafe_asm):
        elf = tmp_path / "nl.elf"
        main(["compile", str(unsafe_asm), "--native", "-o", str(elf)])
        assert main(["verify", str(elf), "--no-loads"]) == 0

    def test_verify_spectre_policy(self, tmp_path, capsys):
        src = tmp_path / "x.s"
        src.write_text("add x18, x21, w1, uxtw\n ldxr x0, [x18]\n ret\n")
        elf = tmp_path / "x.elf"
        main(["compile", str(src), "--native", "-o", str(elf)])
        assert main(["verify", str(elf)]) == 0
        assert main(["verify", str(elf), "--no-exclusives"]) == 1


class TestDisasm:
    def test_disassembly_output(self, tmp_path, asm_file, capsys):
        elf = tmp_path / "prog.elf"
        main(["compile", str(asm_file), "-o", str(elf)])
        assert main(["disasm", str(elf)]) == 0
        out = capsys.readouterr().out
        assert "blr x30" in out
        assert "movz x0, #7" in out


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        src = tmp_path / "p.s"
        src.write_text(HELLO)
        elf = tmp_path / "p.elf"
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools", "compile", str(src),
             "-o", str(elf)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools", "run", str(elf)],
            capture_output=True, text=True,
        )
        assert result.returncode == 7


class TestErrorPaths:
    """Tool failures are one-line diagnostics, never tracebacks."""

    def _run(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.tools", *argv],
            capture_output=True, text=True,
        )

    def test_malformed_elf_one_line_diagnostic(self, tmp_path):
        bogus = tmp_path / "bogus.elf"
        bogus.write_bytes(b"\x7fELF garbage that is not a real image")
        result = self._run(["run", str(bogus)])
        assert result.returncode == 1
        assert "repro.tools: error:" in result.stderr
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_truncated_elf_via_verify(self, tmp_path):
        bogus = tmp_path / "short.elf"
        bogus.write_bytes(b"\x7fEL")
        result = self._run(["verify", str(bogus)])
        assert result.returncode == 1
        assert "repro.tools: error:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_missing_input_file(self):
        result = self._run(["disasm", "/nonexistent/input.elf"])
        assert result.returncode == 1
        assert "repro.tools: error:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unwritable_output_target(self, tmp_path):
        src = tmp_path / "p.s"
        src.write_text(HELLO)
        result = self._run([
            "compile", str(src), "-o",
            str(tmp_path / "no" / "such" / "dir" / "out.elf"),
        ])
        assert result.returncode == 1
        assert "repro.tools: error:" in result.stderr
        assert "Traceback" not in result.stderr

    def test_bad_opt_level_rejected_without_traceback(self, tmp_path):
        src = tmp_path / "p.s"
        src.write_text(HELLO)
        result = self._run(["rewrite", str(src), "-O", "O9"])
        assert result.returncode != 0
        assert "invalid choice" in result.stderr
        assert "Traceback" not in result.stderr

    def test_removed_engine_flag_is_an_argparse_error(self, tmp_path):
        """``--no-chaining`` went with block chaining: unknown, like any
        other flag that never was."""
        src = tmp_path / "p.elf"
        result = self._run(["run", "--no-chaining", str(src)])
        assert result.returncode == 2
        assert "unrecognized arguments: --no-chaining" in result.stderr
        assert "Traceback" not in result.stderr

    def test_removed_fuel_flag_is_an_argparse_error(self, tmp_path):
        """``--fuel`` went with ``EngineConfig.fuel``."""
        result = self._run(["run", "--fuel", "5", str(tmp_path / "p.elf")])
        assert result.returncode == 2
        assert "unrecognized arguments: --fuel" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("line", [
        "ret x31",                # not a register: the encoder's operand
        "movz x0, #1, lsl #8",    # no encoding: a move-wide shift of 8
        "add x0, x1,",            # malformed: an empty operand
    ])
    def test_assembly_errors_are_one_line(self, tmp_path, capsys, line):
        src = tmp_path / "p.s"
        src.write_text(prologue() + f"    {line}\n")
        assert main(["compile", str(src), "--native",
                     "-o", str(tmp_path / "p.elf")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("repro.tools: error:"), err

    def test_in_process_main_returns_one(self, tmp_path, capsys):
        bogus = tmp_path / "b.elf"
        bogus.write_bytes(b"not an elf at all")
        assert main(["run", str(bogus)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro.tools: error:")


class TestClusterCommand:
    def test_cluster_batch(self, tmp_path):
        report = tmp_path / "report.txt"
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools", "cluster",
             "--workers", "2", "--jobs", "4", "--distinct", "2",
             "--target", "2000", "-o", str(report)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        text = report.read_text()
        assert text.startswith("cluster.jobs 4\n")
        assert "job[3].sandbox[0].instructions" in text
        assert "warm" in result.stderr


class TestSharedFlags:
    """rewrite/fuzz/trace/profile share one spelling of the common flags."""

    COMMANDS = ("rewrite", "fuzz", "trace", "profile")

    def _parse(self, command, extra):
        from repro.tools.cli import build_parser

        positional = [] if command == "fuzz" else ["input.s"]
        return build_parser().parse_args([command, *positional, *extra])

    def test_defaults_identical(self):
        for command in self.COMMANDS:
            args = self._parse(command, [])
            assert args.out == "-", command
            assert args.seed == 0, command
            assert args.opt_level == "O2", command

    def test_spellings_accepted_everywhere(self):
        for command in self.COMMANDS:
            args = self._parse(command, [
                "--seed", "9", "--out", "x.txt", "--opt-level", "O1",
            ])
            assert (args.seed, args.out, args.opt_level) == (9, "x.txt", "O1")
            args = self._parse(command, ["-o", "y.txt", "-O", "O0"])
            assert (args.out, args.opt_level) == ("y.txt", "O0")


class TestServeCommand:
    CONFIG = {
        "lanes": 2, "duration_s": 0.2, "checkpoint_interval": 2000,
        "tenants": {
            "gold": {"priority": 0, "rate": 60, "burst": 8, "sla_ms": 50,
                     "load": {"rate": 30, "instructions": 3000,
                              "value": 1}},
            "bronze": {"priority": 2, "rate": 10, "burst": 2,
                       "queue_limit": 4,
                       "load": {"rate": 60, "instructions": 4000,
                                "value": 2}},
        },
    }

    def _config_file(self, tmp_path):
        import json

        path = tmp_path / "serve.json"
        path.write_text(json.dumps(self.CONFIG))
        return path

    def test_serve_report_and_metrics(self, tmp_path, capsys):
        config = self._config_file(tmp_path)
        report = tmp_path / "report.txt"
        metrics = tmp_path / "metrics.prom"
        assert main(["serve", "--config", str(config), "--seed", "3",
                     "-o", str(report), "--metrics-out", str(metrics)]) == 0
        err = capsys.readouterr().err
        assert "requests over 0.2 virtual s on 2 lane(s)" in err
        text = report.read_text()
        assert text.startswith("tenant prio offered ok rejected")
        assert "bronze 2 " in text and "gold 0 " in text
        exposition = metrics.read_text()
        assert "# TYPE repro_serve_completed_total counter" in exposition

        from repro.obs import validate_exposition

        assert validate_exposition(exposition) == []

    def test_serve_deterministic_across_runs(self, tmp_path, capsys):
        config = self._config_file(tmp_path)
        outs = []
        for name in ("a", "b"):
            report = tmp_path / f"{name}.txt"
            metrics = tmp_path / f"{name}.prom"
            assert main(["serve", "--config", str(config), "--seed", "7",
                         "-o", str(report),
                         "--metrics-out", str(metrics)]) == 0
            outs.append(report.read_text() + metrics.read_text())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_serve_bad_json_one_line_diagnostic(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools", "serve",
             "--config", str(bad)],
            capture_output=True, text=True)
        assert result.returncode == 1
        assert "repro.tools: error:" in result.stderr
        assert "Traceback" not in result.stderr
        assert len(result.stderr.strip().splitlines()) == 1

    def test_serve_unknown_tenant_key_one_line_diagnostic(self, tmp_path):
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            {"tenants": {"t": {"rte": 10}}}))
        result = subprocess.run(
            [sys.executable, "-m", "repro.tools", "serve",
             "--config", str(bad)],
            capture_output=True, text=True)
        assert result.returncode == 1
        assert "repro.tools: error:" in result.stderr
        assert "unknown keys" in result.stderr
        assert "Traceback" not in result.stderr
