"""The command-line build driver (python -m repro.cm)."""

import os

import pytest

from repro.cm.__main__ import main


@pytest.fixture
def srcdir(tmp_path):
    d = tmp_path / "proj"
    d.mkdir()
    (d / "base.sml").write_text(
        "structure Base = struct fun triple x = 3 * x end\n")
    (d / "main.sml").write_text(
        "structure Main = struct val answer = Base.triple 14 end\n")
    return str(d)


class TestCli:
    def test_build_and_print(self, srcdir, capsys):
        assert main([srcdir, "--print", "Main.answer"]) == 0
        out = capsys.readouterr().out
        assert "2 compiled" in out
        assert "Main.answer = 42" in out

    def test_bins_reused_on_second_run(self, srcdir, capsys):
        assert main([srcdir, "--no-link"]) == 0
        capsys.readouterr()
        assert main([srcdir, "--no-link"]) == 0
        out = capsys.readouterr().out
        assert "0 compiled, 2 loaded" in out
        assert os.path.isdir(os.path.join(srcdir, ".bin"))

    def test_manager_choice(self, srcdir, capsys):
        assert main([srcdir, "--manager", "make", "--no-link"]) == 0
        assert "2 compiled" in capsys.readouterr().out

    def test_stats_flag(self, srcdir, capsys):
        assert main([srcdir, "--stats", "--no-link"]) == 0
        assert "total build time" in capsys.readouterr().out

    def test_type_error_reported(self, srcdir, capsys):
        with open(os.path.join(srcdir, "bad.sml"), "w") as f:
            f.write('structure Bad = struct val x = 1 + "s" end\n')
        assert main([srcdir, "--no-link"]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_binding_reported(self, srcdir, capsys):
        assert main([srcdir, "--print", "Main.missing"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_bad_directory(self, capsys):
        assert main(["/nonexistent/dir"]) == 2

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main([str(empty)]) == 2

    def test_incremental_after_edit(self, srcdir, capsys):
        assert main([srcdir, "--no-link"]) == 0
        capsys.readouterr()
        with open(os.path.join(srcdir, "main.sml"), "w") as f:
            f.write("structure Main = struct val answer = "
                    "Base.triple 10 end\n")
        assert main([srcdir, "--print", "Main.answer"]) == 0
        out = capsys.readouterr().out
        assert "1 compiled, 1 loaded" in out
        assert "Main.answer = 30" in out


class TestCmFiles:
    def test_cm_file_build(self, tmp_path, capsys):
        lib = tmp_path / "lib"
        lib.mkdir()
        (lib / "s.sml").write_text(
            "structure S = struct val v = 7 end")
        (lib / "lib.cm").write_text("group lib\nmembers\n  s.sml\n")
        app = tmp_path / "app"
        app.mkdir()
        (app / "m.sml").write_text(
            "structure M = struct val out = S.v * 6 end")
        (app / "app.cm").write_text(
            "group app\nmembers\n  m.sml\nimports\n  ../lib/lib.cm\n")
        assert main([str(app / "app.cm"), "--print", "M.out"]) == 0
        out = capsys.readouterr().out
        assert "group lib" in out and "group app" in out
        assert "M.out = 42" in out

    def test_bad_cm_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cm"
        bad.write_text("members\n x.sml\n")
        assert main([str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_stale_format_bins_ignored(self, srcdir, capsys):
        import json

        assert main([srcdir, "--no-link"]) == 0
        capsys.readouterr()
        # Corrupt a payload and rewrite another header with an old
        # format tag: both must be treated as cache misses.
        bin_dir = os.path.join(srcdir, ".bin")
        with open(os.path.join(bin_dir, "base.bin"), "wb") as f:
            f.write(b"garbage")
        header_path = os.path.join(bin_dir, "main.bin.json")
        with open(header_path) as f:
            header = json.load(f)
        header["format"] = 1
        with open(header_path, "w") as f:
            json.dump(header, f)
        assert main([srcdir, "--print", "Main.answer"]) == 0
        out = capsys.readouterr().out
        assert "Main.answer = 42" in out


class TestSupervisedCli:
    def test_retries_flag_builds_supervised(self, srcdir, capsys):
        assert main([srcdir, "--retries", "1", "--jobs", "2",
                     "--pool", "thread", "--print", "Main.answer"]) == 0
        out = capsys.readouterr().out
        assert "Main.answer = 42" in out
        assert "2 jobs" in out

    def test_resume_flag_reuses_the_store(self, srcdir, capsys):
        assert main([srcdir, "--no-link"]) == 0
        capsys.readouterr()
        assert main([srcdir, "--resume", "--pool", "thread",
                     "--no-link"]) == 0
        out = capsys.readouterr().out
        assert "0 compiled, 2 loaded" in out

    def test_failed_unit_reports_incomplete(self, srcdir, capsys):
        # An elaboration error is deterministic: never retried, the
        # unit is poisoned and the exit code + ledger say so.
        with open(os.path.join(srcdir, "bad.sml"), "w") as f:
            f.write("structure Bad = struct val x = no_such_thing end\n")
        assert main([srcdir, "--retries", "2", "--pool", "thread",
                     "--no-link", "--explain"]) == 1
        captured = capsys.readouterr()
        assert "build incomplete: 1 unit(s) failed" in captured.err
        assert "see --explain" in captured.err
        assert "failed-after-retries" in captured.out
        # The healthy units were still built and saved.
        assert os.path.isdir(os.path.join(srcdir, ".bin"))


class TestGroupPrintArgument:
    @staticmethod
    def make_group(tmp_path):
        (tmp_path / "s.sml").write_text(
            "structure S = struct val v = 7 end")
        desc = tmp_path / "g.cm"
        desc.write_text("group g\nmembers\n  s.sml\n")
        return str(desc)

    def test_malformed_print_is_a_usage_error_not_a_crash(self, tmp_path,
                                                          capsys):
        # Used to die with an unhandled ValueError: the directory path
        # validated STRUCTURE.NAME, the group path did not.
        desc = self.make_group(tmp_path)
        assert main([desc, "--print", "NoDotHere"]) == 2
        assert "STRUCTURE.NAME" in capsys.readouterr().err

    def test_wellformed_print_still_works(self, tmp_path, capsys):
        desc = self.make_group(tmp_path)
        assert main([desc, "--print", "S.v"]) == 0
        assert "S.v = 7" in capsys.readouterr().out


class TestScheduleAndServe:
    def test_ready_schedule_builds(self, srcdir, capsys):
        assert main([srcdir, "--jobs", "2", "--no-link"]) == 0
        assert "2 compiled" in capsys.readouterr().out

    def test_ready_schedule_incremental(self, srcdir, capsys):
        assert main([srcdir, "--no-link"]) == 0
        capsys.readouterr()
        assert main([srcdir, "--no-link"]) == 0
        assert "0 compiled, 2 loaded" in capsys.readouterr().out

    def test_priority_longest_first_orders_dispatch(self, tmp_path,
                                                     capsys):
        """``--priority`` applies at every ``--jobs``, with no other
        flag: the second build dispatches in longest-first order of
        the first build's recorded compile seconds."""
        from repro.obs.history import BuildHistory, longest_first_key

        proj = tmp_path / "prio"
        proj.mkdir()
        # Independent units whose size grows against name order, so
        # longest-first and name order disagree.
        for k, name in enumerate("abcd"):
            body = " ".join(f"val v{i} = {i} + 1"
                            for i in range(1 + 80 * k))
            (proj / f"{name}.sml").write_text(
                f"structure {name.upper()} = struct {body} end\n")
        args = [str(proj), "--jobs", "2", "--pool", "thread",
                "--priority", "longest-first", "--no-link"]
        bin_dir = str(proj / ".bin")
        assert main(args) == 0
        key = longest_first_key(
            BuildHistory(bin_dir).compile_seconds("cutoff"))
        assert main(args) == 0
        capsys.readouterr()
        order = BuildHistory(bin_dir).latest("cutoff").dispatch_order
        assert sorted(order) == ["a", "b", "c", "d"]
        assert order == sorted(order, key=key)

    def test_serve_speaks_the_wire_protocol(self, srcdir, capsys,
                                            monkeypatch):
        import io
        import json
        import sys as _sys

        requests = "\n".join([
            json.dumps({"op": "ping"}),
            json.dumps({"op": "build"}),
            json.dumps({"op": "shutdown"}),
        ]) + "\n"
        monkeypatch.setattr(_sys, "stdin", io.StringIO(requests))
        assert main(["--serve", srcdir]) == 0
        lines = capsys.readouterr().out.splitlines()
        ping, build, bye = [json.loads(l) for l in lines]
        assert ping["result"]["schedule"] == "ready"
        assert build["ok"] is True
        assert build["result"]["stats"]["compiled"] == 2
        assert bye["result"] == {"bye": True}

    def test_serve_without_srcdir_requires_group_per_request(
            self, capsys, monkeypatch):
        import io
        import json
        import sys as _sys

        monkeypatch.setattr(
            _sys, "stdin", io.StringIO(json.dumps({"op": "build"}) + "\n"))
        assert main(["--serve"]) == 0
        response = json.loads(capsys.readouterr().out)
        assert response["ok"] is False
        assert "group" in response["error"]["message"]

    def test_no_srcdir_without_serve_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main([])
