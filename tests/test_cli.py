import contextlib
import csv
import errno
import io
import json
import os
import signal
import stat
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from partition_identities import cli, identities, partitions, verifier
from partition_identities.cli import _parse_range, main
from partition_identities.identities import IDENTITIES, MAX_S, IdentityCase, IdentityId, case_sides
from partition_identities.partitions import Partition
from partition_identities.polynomials import Polynomial, render
from partition_identities.verifier import EXIT_COUNTEREXAMPLE, EXIT_FAILURE, serialize_side

#: the fields of an IdentityCase after its id, in order
CASE_FIELDS = ("n", "r", "s", "form")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_genbinom(capsys):
    code, out, _ = run(capsys, "genbinom", "2+1", "2")
    assert code == 0
    assert out.strip() == "2"


def test_zvalue(capsys):
    code, out, _ = run(capsys, "zvalue", "2+1+1")
    assert code == 0
    assert out.strip() == "4"


def test_partitions_listing(capsys, monkeypatch):
    code, out, _ = run(capsys, "partitions", "4", "--len", "2")
    assert code == 0
    assert out.splitlines()[:2] == ["3+1", "2+2"]

    code, out, _ = run(capsys, "partitions", "5", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 7

    # the streamed listing has the bytes of a rendering of the whole list
    for n in range(21):
        for length in (None, 0, 1, 3, n):
            bounds = () if length is None else (length, length)
            texts = [str(p) for p in partitions.enumerate_partitions(n, *bounds)]
            lines = "".join(f"{text}\n" for text in texts)
            expected = {
                "human": f"{lines}total: {len(texts)}\n",
                "csv": lines,
                "json": json.dumps(texts, ensure_ascii=False) + "\n",
            }
            for fmt, text in expected.items():
                argv = ["partitions", str(n), "--format", fmt]
                argv += [] if length is None else ["--len", str(length)]
                assert run(capsys, *argv) == (0, text, ""), argv

    # and it never holds that list, under either name the CLI could use
    def refuse(*args):
        raise AssertionError(f"listed the partitions {args}")

    monkeypatch.setattr(partitions, "enumerate_partitions", refuse)
    monkeypatch.setattr(cli, "enumerate_partitions", refuse, raising=False)
    for fmt in ("human", "json", "csv"):
        assert run(capsys, "partitions", "8", "--format", fmt)[0] == 0


def test_identity_json_matches_verifier_schema(capsys):
    code, out, _ = run(
        capsys, "identity", "CONJ3(n=3,r=2,s=1)", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"case", "status", "lhs", "rhs", "elapsed_ms"}
    assert data["case"] == "CONJ3(n=3,r=2,s=1)"
    assert data["status"] == "VERIFIED"
    assert data["lhs"] == data["rhs"] == "3"


#: one case per id with its JSON status and sides, as pinned before sides
#: moved to integer numerators; fractional and SKIPPED cases included
IDENTITY_JSON = {
    "CLASSICAL(n=4,form=UNSIGNED)": (
        "VERIFIED", ["0", "1/4", "11/24", "1/4", "1/24"], ["0", "1/4", "11/24", "1/4", "1/24"]
    ),
    "CONJ1(n=6,r=4,s=1,form=UNSIGNED)": (
        "VERIFIED", ["15", "55/2", "15", "5/2"], ["15", "55/2", "15", "5/2"]
    ),
    "CONJ2(n=4,s=2,form=UNSIGNED)": (
        "VERIFIED", ["5", "37/6", "5/2", "1/3"], ["5", "37/6", "5/2", "1/3"]
    ),
    "CONJ3(n=6,r=4,s=0)": ("VERIFIED", "10", "10"),
    "CONJ4(n=5,r=1,s=2)": ("SKIPPED", "30", "0"),
    "CONST_TERM(n=5,r=3,s=2)": ("VERIFIED", "-60", "-60"),
    "TOP_COEFF(n=5,r=4,s=1)": ("VERIFIED", ["5/6", "-5"], ["5/6", "-5"]),
    # one check at r = 1 is a lone string; past n, both checks are zero
    "TOP_COEFF(n=5,r=1,s=1)": ("VERIFIED", "5", "5"),
    "TOP_COEFF(n=3,r=5,s=1)": ("VERIFIED", ["0", "0"], ["0", "0"]),
    "BINOMIAL_TYPE(n=3,s=2)": ("VERIFIED", ["0", "2", "3", "1"], ["0", "2", "3", "1"]),
    "HOCKEY_STICK(n=5,r=1)": ("SKIPPED", "5", "4"),
}


def test_identity_sides_keep_their_types_and_json(capsys):
    # integer prefactors and kernels must not leak a bare int into a side
    from partition_identities.polynomials import Ratio

    assert {IdentityCase.parse(c).identity_id for c in IDENTITY_JSON} == set(IdentityId)
    for text, (status, lhs, rhs) in IDENTITY_JSON.items():
        for side in (v for pair in case_sides(IdentityCase.parse(text)) for v in pair):
            assert type(side) in (Polynomial, Ratio), (text, side)
        code, out, _ = run(capsys, "identity", text, "--format", "json")
        assert code == 0
        data = json.loads(out)
        del data["elapsed_ms"]
        assert data == {"case": text, "status": status, "lhs": lhs, "rhs": rhs}


def test_identity_human(capsys):
    code, out, _ = run(capsys, "identity", "CONJ2(n=2,s=2,form=SIGNED)")
    assert code == 0
    assert out.splitlines() == ["LHS = 2·X - 3", "RHS = 2·X - 3", "VERIFIED"]
    # every id, TOP_COEFF's two pairs included: one LHS and RHS line per pair,
    # each the side's own text, then the status
    for text, (status, _, _) in IDENTITY_JSON.items():
        expected = []
        for lhs, rhs in case_sides(IdentityCase.parse(text)):
            for name, side in (("LHS", lhs), ("RHS", rhs)):
                expected.append(f"{name} = {render(serialize_side(side))}")
        code, out, _ = run(capsys, "identity", text)
        assert code == 0
        assert out.splitlines() == expected + [status], text


def test_sweep_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "sweep",
        "--ids",
        "CONJ1,CONJ3",
        "--n",
        "1..4",
        "--r",
        "1..4",
        "--s",
        "1..3",
        "--out",
        str(out_file),
    )
    assert code == 0
    data = json.loads(out_file.read_text(encoding="utf-8"))
    assert data["summary"]["counterexamples"] == 0
    assert data["summary"]["verified"] == len(data["results"])


def test_sweep_stdout_json(capsys):
    code, out, _ = run(
        capsys, "sweep", "--ids", "CLASSICAL", "--n", "1..3"
    )
    assert code == 0
    data = json.loads(out)
    assert data["config"]["identity_ids"] == ["CLASSICAL"]


def test_sweep_csv(capsys):
    code, out, _ = run(
        capsys, "sweep", "--ids", "CONJ2", "--n", "2", "--s", "1..2",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "case,status,lhs,rhs,elapsed_ms"


def test_sweep_human(capsys):
    # one line per case, in grid order, then the summary; CONJ4 at r = 1
    # is SKIPPED
    code, out, _ = run(capsys, "sweep", "--ids", "CONJ4", "--n", "2", "--r", "1..2",
                       "--s", "1", "--format", "human")
    assert code == 0
    assert out == (
        "CONJ4(n=2,r=1,s=1): SKIPPED\n"
        "CONJ4(n=2,r=2,s=1): VERIFIED\n"
        "summary: 1 verified, 0 counterexamples, 1 skipped\n"
    )


def _csv_text(report):
    """A report's CSV as one string, as the writer built it before it took a sink."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["case", "status", "lhs", "rhs", "elapsed_ms"])
    for res in report.results:
        writer.writerow([str(res.case), res.status, *map(verifier._csv_side, (res.lhs, res.rhs)),
                         res.elapsed_ms])
    return buf.getvalue()


def _human_text(report):
    lines = [f"{res.case}: {res.status}" for res in report.results]
    lines.append("summary: {verified} verified, {counterexamples} counterexamples, "
                 "{skipped} skipped".format(**report.summary))
    return "\n".join(lines) + "\n"


def test_sweep_writes_each_format_whole(capsys, monkeypatch, tmp_path):
    # one report, so its timing fields agree between runs, of over 512 rows
    report = verifier.run_sweep(verifier.SweepConfig(
        identity_ids=(IdentityId.CONJ1, IdentityId.CONJ3, IdentityId.CONJ4),
        n_range=(1, 6), r_range=(1, 6), s_range=(1, 4),
    ))
    assert len(report.results) > 512
    monkeypatch.setattr(cli, "run_sweep", lambda config: report)
    args = ["sweep", "--ids", "CONJ1", "--n", "1"]
    out_file = tmp_path / "report.json"
    assert run(capsys, *args, "--out", str(out_file)) == (0, "", "")
    text = json.dumps(report.to_dict(), ensure_ascii=False)
    assert out_file.read_bytes() == text.encode("utf-8")
    assert run(capsys, *args) == (0, text + "\n", "")
    assert run(capsys, *args, "--format", "csv") == (0, _csv_text(report), "")
    assert run(capsys, *args, "--format", "human") == (0, _human_text(report), "")
    assert run(capsys, *args, "--format", "csv", "--out", str(out_file))[0] == 0
    assert out_file.read_bytes() == _csv_text(report).encode("utf-8")


def test_sweep_counterexample_exit_code(capsys, corrupt_rhs):
    code, out, _ = run(capsys, "sweep", "--ids", "CLASSICAL", "--n", "1..2")
    assert code == 1
    results = json.loads(out)["results"]
    assert {r["status"] for r in results} == {"COUNTEREXAMPLE"}
    for res in results:
        assert res["lhs"] != res["rhs"]
    code, out, _ = run(capsys, "sweep", "--ids", "CLASSICAL", "--n", "1", "--format", "human")
    assert code == 1
    assert out == (
        "CLASSICAL(n=1,form=SIGNED): COUNTEREXAMPLE\n"
        "CLASSICAL(n=1,form=UNSIGNED): COUNTEREXAMPLE\n"
        "summary: 0 verified, 2 counterexamples, 0 skipped\n"
    )


def test_identity_builds_sides_once(capsys, monkeypatch):
    from partition_identities import cli, identities, verifier

    calls = []
    real = identities.case_sides

    def counted(case):
        calls.append(case)
        return real(case)

    for module in (identities, verifier, cli):
        monkeypatch.setattr(module, "case_sides", counted)
    for fmt in ("human", "json"):
        calls.clear()
        code, _, _ = run(capsys, "identity", "TOP_COEFF(n=3,r=2,s=1)", "--format", fmt)
        assert code == 0
        assert len(calls) == 1


def test_identity_writes_each_side_once(capsys, monkeypatch):
    # the human lines show the texts the judge wrote for the report, so
    # both formats write the same coefficients, the same number of times
    from partition_identities import polynomials

    calls = []
    real = polynomials._ratio_str

    def counted(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(polynomials, "_ratio_str", counted)
    for case in ("CONJ1(n=6,r=4,s=1,form=UNSIGNED)", "CONJ3(n=6,r=4,s=0)", "TOP_COEFF(n=5,r=4,s=1)"):
        counts = []
        for fmt in ("human", "json"):
            calls.clear()
            code, _, _ = run(capsys, "identity", case, "--format", fmt)
            assert code == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0, (case, counts)


def test_identity_counterexample_exit_code(capsys, corrupt_rhs):
    code, out, _ = run(capsys, "identity", "CONJ3(n=3,r=2,s=1)")
    assert code == 1
    assert out.splitlines() == ["LHS = 3", "RHS = 4", "COUNTEREXAMPLE"]


def test_malformed_input_exits_2(capsys):
    assert run(capsys, "zvalue", "1+3")[0] == 2
    assert run(capsys, "identity", "BOGUS(n=1)")[0] == 2
    assert run(capsys, "identity", "CONJ3(n=3,n=4,r=2,s=1)")[0] == 2
    assert run(capsys, "identity", "CLASSICAL(form=SIGNED)")[0] == 2
    assert run(capsys, "sweep", "--ids", "CONJ1", "--n", "3..1")[0] == 2
    assert run(capsys, "sweep", "--ids", "NOPE", "--n", "1..2")[::2] == (
        2,
        "error: 'NOPE' is not a valid IdentityId\n",
    )
    # the sweep has no hidden test flags
    assert run(capsys, "sweep", "--ids", "CLASSICAL", "--n", "1", "--perturb")[0] == 2
    assert run(capsys, "unknown-subcommand")[0] == 2


def test_sweep_refuses_a_repeated_id(capsys):
    # the grid holds CONJ1 once, so the echoed config must not list it twice
    code, out, err = run(capsys, "sweep", "--ids", "CONJ1,CONJ1", "--n", "1..2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "more than once" in err


def test_sweep_refuses_an_unwritable_out_before_any_case(capsys, monkeypatch, tmp_path):
    def evaluate(case):
        raise AssertionError(f"evaluated {case}")

    monkeypatch.setattr(verifier, "case_sides", evaluate)
    missing = str(tmp_path / "missing" / "r.json")
    code, out, err = run(capsys, "sweep", "--ids", "CONJ1", "--n", "1..3", "--out", missing)
    assert code == 2 and out == ""
    assert err.startswith("error:") and missing in err and err.count("\n") == 1
    # a bad config is still refused first, and names itself
    code, _, err = run(capsys, "sweep", "--ids", "CONJ1", "--n", "3..1", "--out", missing)
    assert code == 2 and "empty n range" in err
    # the spy is wired: with a writable --out the sweep reaches it
    code, _, err = run(capsys, "sweep", "--ids", "CONJ1", "--n", "1..3",
                       "--out", str(tmp_path / "r.json"))
    assert code == EXIT_FAILURE and "AssertionError: evaluated" in err


def test_failed_sweep_leaves_an_existing_out_as_it_was(capsys, monkeypatch, tmp_path):
    # the report is written beside --out and moved onto it only when whole,
    # so a sweep that raises, or is interrupted, keeps the old report's bytes
    # and leaves no other file behind
    prior = b'{"an earlier": "report"}'
    out_file = tmp_path / "r.json"
    out_file.write_bytes(prior)
    args = ["sweep", "--ids", "CONJ1", "--n", "1..3", "--out", str(out_file)]
    for raised in (RuntimeError("case failed"), KeyboardInterrupt()):
        def evaluate(case, raised=raised):
            raise raised

        monkeypatch.setattr(verifier, "case_sides", evaluate)
        if isinstance(raised, KeyboardInterrupt):
            with pytest.raises(KeyboardInterrupt):
                main(args)
        else:
            code, out, err = run(capsys, *args)
            assert code == EXIT_FAILURE and out == "" and "RuntimeError: case failed" in err
        assert out_file.read_bytes() == prior
        assert os.listdir(tmp_path) == ["r.json"]
    # a directory, which no report could replace, is refused before any case
    code, out, err = run(capsys, "sweep", "--ids", "CONJ1", "--n", "1..3", "--out", str(tmp_path))
    assert code == 2 and out == "" and err.startswith("error:") and err.count("\n") == 1
    assert os.strerror(errno.EISDIR) in err and repr(str(tmp_path)) in err
    assert os.listdir(tmp_path) == ["r.json"]
    # a sweep that ends replaces it whole; through a link, the file it
    # links to, and the link stays
    monkeypatch.undo()
    link = tmp_path / "link.json"
    link.symlink_to(out_file)
    for path in (out_file, link):
        code, _, _ = run(capsys, *args[:-1], str(path))
        assert code == 0 and json.loads(out_file.read_bytes())["summary"]["verified"] > 0
        out_file.write_bytes(prior)
    assert link.is_symlink() and sorted(os.listdir(tmp_path)) == ["link.json", "r.json"]
    # a device holds no report: the report is written straight to it
    code, _, _ = run(capsys, *args[:-1], os.devnull)
    assert code == 0 and stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert not any(name.startswith(os.path.basename(os.devnull) + ".")
                   for name in os.listdir(os.path.dirname(os.devnull)))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_sweep_whose_worker_is_killed_is_no_counterexample(capsys, fault_in_child, tmp_path):
    # a worker killed mid-sweep, as by the OOM killer, leaves no verdict
    # for its cases: exit 1 would report a counterexample
    fault_in_child(lambda: os.kill(os.getpid(), signal.SIGKILL))
    code, _, err = run(capsys, "sweep", "--ids", "CONJ1", "--n", "1..6", "--r", "1..6",
                       "--s", "1..2", "--workers", "2", "--out", str(tmp_path / "f.json"))
    assert code == EXIT_FAILURE != EXIT_COUNTEREXAMPLE
    assert "RuntimeError: a sweep worker exited with status -9" in err
    # no child is left, reaped or not
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _child_env() -> dict:
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(cli.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


def test_terminated_sweep_leaves_an_existing_out_as_it_was(tmp_path):
    # a real SIGTERM mid-sweep ends it as Ctrl-C does: the file it was
    # writing goes, and --out keeps its earlier bytes.  Then the sweep dies
    # of SIGTERM, without a traceback, so its status says what ended it.
    # The grid takes seconds; the signal is sent as soon as the sweep's own
    # file appears
    prior = b"an earlier report\n"
    out_file = tmp_path / "F"
    out_file.write_bytes(prior)
    child = subprocess.Popen(
        [sys.executable, "-m", "partition_identities.cli", "sweep", "--ids", "CONJ1",
         "--n", "57..60", "--r", "1..60", "--out", str(out_file)],
        env=_child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        deadline = time.monotonic() + 60
        while len(os.listdir(tmp_path)) == 1 and child.poll() is None:
            assert time.monotonic() < deadline, "the sweep wrote no file of its own"
            time.sleep(0.01)
        child.send_signal(signal.SIGTERM)
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
        child.wait()
        child.stderr.close()
    assert child.returncode == -signal.SIGTERM, err
    assert "Traceback" not in err
    assert out_file.read_bytes() == prior
    assert os.listdir(tmp_path) == ["F"]


@pytest.mark.skipif(not hasattr(signal, "pthread_sigmask"), reason="needs a signal mask")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
def test_signal_as_the_sweep_file_appears_leaves_no_file(tmp_path, signum):
    # the signal comes the moment os.open has made the sweep's own file,
    # before the sweep has entered the try that removes it: it is held until
    # then, so the file still goes, --out keeps its bytes, and the sweep
    # dies of the signal
    script = (
        "import os, signal, sys\n"
        "from partition_identities.cli import main\n"
        "real_open = os.open\n"
        "def signalling_open(path, *args):\n"
        "    fd = real_open(path, *args)\n"
        "    if path.endswith('.partial'):\n"
        f"        os.kill(os.getpid(), {int(signum)})\n"
        "    return fd\n"
        "os.open = signalling_open\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    prior = b"an earlier report\n"
    out_file = tmp_path / "F"
    out_file.write_bytes(prior)
    done = subprocess.run(
        [sys.executable, "-c", script, "sweep", "--ids", "CONJ1", "--n", "1..3",
         "--out", str(out_file)],
        env=_child_env(), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == -signum, done.stderr
    assert out_file.read_bytes() == prior
    assert os.listdir(tmp_path) == ["F"]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_sweep_whose_worker_is_terminated_is_no_counterexample(capsys, fault_in_child, tmp_path):
    # a forked worker inherits the parent's SIGTERM handler, but still dies
    # of the signal: the sweep fails as for any worker that exits early
    fault_in_child(lambda: os.kill(os.getpid(), signal.SIGTERM))
    prior = b"an earlier report\n"
    out_file = tmp_path / "F"
    out_file.write_bytes(prior)
    handler = signal.getsignal(signal.SIGTERM)
    code, _, err = run(capsys, "sweep", "--ids", "CONJ1", "--n", "1..6", "--r", "1..6",
                       "--s", "1..2", "--workers", "2", "--out", str(out_file))
    assert code == EXIT_FAILURE != EXIT_COUNTEREXAMPLE
    assert f"RuntimeError: a sweep worker exited with status {-signal.SIGTERM}" in err
    assert out_file.read_bytes() == prior and os.listdir(tmp_path) == ["F"]
    # the sweep put back the handler it found
    assert signal.getsignal(signal.SIGTERM) == handler
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_closed_stdout_exits_2_without_traceback():
    # `partid partitions 40 | head -1`: 1 would mean a counterexample
    child = subprocess.Popen(
        [sys.executable, "-m", "partition_identities.cli", "partitions", "40"],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.readline() == b"40\n"
    child.stdout.close()
    assert child.wait(timeout=60) == 2
    assert child.stderr.read() == b""
    child.stderr.close()


def test_sweep_to_closed_stdout_exits_2_without_traceback():
    # a report of many rows and far more than a pipe holds, whose reader
    # leaves after the first bytes
    child = subprocess.Popen(
        [sys.executable, "-m", "partition_identities.cli", "sweep", "--ids", "HOCKEY_STICK",
         "--n", "1..60", "--r", "1..60"],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert child.stdout.read(12) == b'{"config": {'
    child.stdout.close()
    assert child.wait(timeout=60) == 2
    assert child.stderr.read() == b""
    child.stderr.close()


def test_sweep_validates_only_what_selected_ids_use(capsys):
    # a form needs an identity that has forms
    assert run(capsys, "sweep", "--ids", "CONJ3", "--n", "2", "--r", "2", "--s", "1",
               "--form", "SIGNED")[0] == 2
    # r and s floors apply only to identities that take r or s
    assert run(capsys, "sweep", "--ids", "CLASSICAL", "--n", "1", "--s", "0")[0] == 0
    assert run(capsys, "sweep", "--ids", "CONJ2", "--n", "1", "--r", "0")[0] == 0
    assert run(capsys, "sweep", "--ids", "CONJ1", "--n", "1", "--s", "0")[0] == 2


def test_enumeration_too_large_exits_2(capsys):
    code, _, err = run(capsys, "partitions", "200")
    assert code == 2 and "partitions" in err
    assert run(capsys, "sweep", "--ids", "CONJ1", "--n", "61", "--r", "1",
               "--s", "1", "--workers", "1")[0] == 2


def test_far_too_large_input_exits_2_fast(capsys):
    # the p(n) limit, each identity's bounds on n and s and the grid bound
    # are comparisons, not computations
    for argv in (
        ("identity", "CLASSICAL(n=100000,form=SIGNED)"),
        ("identity", "HOCKEY_STICK(n=1000000000,r=2)"),
        ("identity", "BINOMIAL_TYPE(n=5000,s=3)"),
        ("identity", "CONJ3(n=5,r=2,s=1000000)"),
        ("genbinom", "2000+2000", "2000"),
        ("partitions", "100000"),
        ("sweep", "--ids", "CONJ1", "--n", "1..100000"),
        ("sweep", "--ids", "HOCKEY_STICK", "--n", "1..100000", "--r", "1..100000"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert code == 2 and err.startswith("error: ") and not out, argv
        assert len(err) < 200, argv


def test_sides_past_the_int_to_str_limit_print(capsys):
    # CPython's str() refuses an int of more than 4300 digits by default;
    # these sides have up to 80 000, and print in full
    for case in (
        "CONJ3(n=20,r=10,s=10000)",
        "TOP_COEFF(n=400,r=400,s=10000)",
        "CONST_TERM(n=100000,r=45000,s=10000)",
    ):
        code, out, err = run(capsys, "identity", case)
        assert code == 0 and not err, case
        *sides, status = out.splitlines()
        assert status == "VERIFIED"
        assert min(map(len, sides)) > 4300
        for lhs, rhs in zip(sides[::2], sides[1::2]):
            assert lhs.removeprefix("LHS = ") == rhs.removeprefix("RHS = ")
    code, out, _ = run(capsys, "sweep", "--ids", "CONJ3", "--n", "20", "--r", "10", "--s", "10000")
    assert code == 0
    (result,) = json.loads(out)["results"]
    assert result["status"] == "VERIFIED" and len(result["lhs"]) > 4300


def test_sweep_walks_only_what_cases_use(capsys, monkeypatch):
    def refuse(n, *_):
        raise AssertionError(f"enumerated the partitions of {n}")

    monkeypatch.setattr(partitions, "_partitions_of", refuse)
    # the spy is wired: a listing reaches the walk
    code, _, err = run(capsys, "partitions", "3")
    assert code == EXIT_FAILURE and "AssertionError: enumerated the partitions of 3" in err
    # the length table, past the memo, which an earlier test may have
    # filled at n = 4, comes from the exponential formula, not from the walk
    monkeypatch.setattr(identities, "_length_table", identities._length_table.__wrapped__)
    code, out, _ = run(capsys, "sweep", "--ids", "CONJ3", "--n", "4", "--r", "2", "--s", "1")
    assert code == 0 and json.loads(out)["results"][0]["status"] == "VERIFIED"
    # HOCKEY_STICK is scalar binomials only; p(200) is never needed
    assert run(capsys, "sweep", "--ids", "HOCKEY_STICK", "--n", "200", "--r", "2")[0] == 0


def test_sweep_imports_no_pool_module(tmp_path):
    # importing concurrent.futures cost every sweep process about 10 ms,
    # dataclasses, with the inspect, ast, dis and tokenize it pulls in, 8 to
    # 13 ms more, and fractions, with decimal and numbers, about 4 ms; a
    # sweep at one and at two workers now imports none of them, a JSON
    # sweep does not import csv, and a one-worker sweep, which never forks,
    # does not import select
    absent = (
        "concurrent", "multiprocessing", "csv", "_csv",
        "dataclasses", "inspect", "ast", "dis", "tokenize",
        "fractions", "decimal", "_decimal", "_pydecimal", "numbers",
    )
    script = (
        "import sys\n"
        "from partition_identities.cli import main\n"
        "args = ['sweep', '--ids', 'CONJ1,CONJ3', '--n', '1..6', '--r', '1..6', '--s', '1..2']\n"
        "assert main(args + ['--workers', '1', '--out', sys.argv[1] + '1']) == 0\n"
        "print('select' in sys.modules)\n"
        "assert main(args + ['--workers', '2', '--out', sys.argv[1] + '2']) == 0\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {absent!r}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "report")],
        env=_child_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.split("\n") == ["False", "[]", ""]
    reports = [json.loads((tmp_path / f"report{w}").read_text()) for w in "12"]
    assert len(reports[0]["results"]) == len(reports[1]["results"]) > 0


def test_main_freezes_the_import_time_heap():
    # so that no later collection, the full one at exit included, walks
    # the objects the imports made; only what main makes stays unfrozen
    script = (
        "import gc\n"
        "from partition_identities.cli import main\n"
        "before = len(gc.get_objects())\n"
        "assert gc.get_freeze_count() == 0 and main(['zvalue', '3+1']) == 0\n"
        "print(gc.get_freeze_count() >= before > len(gc.get_objects()))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=_child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout == "3\nTrue\n"


def test_negative_length_exits_2(capsys):
    code, out, err = run(capsys, "partitions", "5", "--len", "-1")
    assert code == 2 and "non-negative" in err
    assert "total" not in out


def test_sweep_refuses_enumeration_limit_before_any_case(capsys, monkeypatch):
    def refuse(n, *_):
        raise AssertionError(f"enumerated the partitions of {n}")

    def evaluate(case):
        raise AssertionError(f"evaluated {case}")

    monkeypatch.setattr(partitions, "_partitions_of", refuse)
    monkeypatch.setattr(verifier, "case_sides", evaluate)
    # the spy is wired: a case within the limits reaches it
    code, _, err = run(capsys, "sweep", "--ids", "HOCKEY_STICK", "--n", "2", "--r", "2")
    assert code == EXIT_FAILURE and "AssertionError: evaluated" in err
    for iid, spec in IDENTITIES.items():
        # every identity takes n, then some of r, s and form, in that order
        assert spec.params[0] == "n", iid
        assert [key for key in CASE_FIELDS if key in spec.params] == list(spec.params), iid
        n_range = f"{spec.max_n - 1}..{spec.max_n + 1}"
        code, _, err = run(capsys, "sweep", "--ids", iid.value, "--n", n_range, "--r", "30")
        # the first two n are within the limit, but no case runs
        assert code == 2 and f"n={spec.max_n + 1}" in err, iid
        if "s" in spec.params:
            s_range = f"{MAX_S - 1}..{MAX_S + 1}"
            code, _, err = run(capsys, "sweep", "--ids", iid.value, "--n", "2", "--s", s_range)
            assert code == 2 and f"s={MAX_S + 1}" in err, iid


#: every bound in the registry, so that draws land on both sides of each
_BOUNDS = sorted({0, 1, MAX_S} | {spec.max_n for spec in IDENTITIES.values()})
int_texts = st.one_of(
    st.integers(-3, 70).map(str),
    st.sampled_from(_BOUNDS).flatmap(lambda v: st.integers(v - 2, v + 2)).map(str),
    st.integers(-10**30, 10**30).map(str),
    # past the 4300-digit limit of int(str) in recent CPython releases
    st.tuples(st.sampled_from(["", "-"]), st.integers(4301, 4400)).map(
        lambda sign_digits: sign_digits[0] + "9" * sign_digits[1]
    ),
)


@st.composite
def case_texts(draw):
    iid = draw(st.sampled_from(list(IdentityId)))
    spec = IDENTITIES[iid]
    # mostly the parameters the identity takes, else any of them
    wanted = list(spec.params)
    keys = draw(st.just(wanted) | st.lists(st.sampled_from(CASE_FIELDS), unique=True))
    values = {"form": st.sampled_from(["SIGNED", "UNSIGNED", "BOTH"])}
    fields = [f"{key}={draw(values.get(key, int_texts))}" for key in keys]
    return f"{iid.value}({','.join(fields)})"


def _assert_in_domain(case):
    spec = IDENTITIES[case.identity_id]
    # exactly the fields the identity's builder takes are set
    given = [key for key in CASE_FIELDS if getattr(case, key) is not None]
    assert given == list(spec.params), case
    assert 1 <= case.n <= spec.max_n, case
    assert case.r is None or case.r >= 1, case
    assert case.s is None or spec.s_min <= case.s <= MAX_S, case


@given(case_texts() | st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_case_parse_fuzz_stays_in_domain(text):
    # a parsed case is only built here, never evaluated
    try:
        case = IdentityCase.parse(text)
    except ValueError:
        return
    _assert_in_domain(case)


#: "a..b" with both ends near one bound, so that a short range straddles it
near_bound_ranges = st.sampled_from(_BOUNDS).flatmap(
    lambda v: st.tuples(st.integers(v - 2, v + 2), st.integers(v - 2, v + 2))
).map(lambda ends: f"{ends[0]}..{ends[1]}")
range_texts = st.one_of(
    int_texts, st.tuples(int_texts, int_texts).map("..".join), near_bound_ranges, st.text(max_size=20)
)


@given(
    st.lists(st.sampled_from(list(IdentityId)), min_size=1, unique=True),
    range_texts,
    range_texts,
    range_texts,
)
@settings(max_examples=300, deadline=None)
def test_range_parse_fuzz_stays_in_domain(ids, n_text, r_text, s_text):
    try:
        config = verifier.SweepConfig(tuple(ids), *map(_parse_range, (n_text, r_text, s_text)))
        config.validate()
    except ValueError:  # ConfigError is a ValueError
        return
    # every case of an accepted grid is built without error, since its
    # corners are; none is evaluated
    for iid, axes in verifier._grid_axes(config):
        if all(axes):
            for params in product(*[(axis[0], axis[-1]) for axis in axes]):
                _assert_in_domain(IdentityCase(iid, *params))


#: "+"-joined small integers, sorted or not, or any text
partition_texts = st.one_of(
    st.lists(st.integers(-2, 30), max_size=6).map(
        lambda parts: "+".join(map(str, sorted(parts, reverse=True)))
    ),
    st.lists(st.integers(-2, 30), max_size=6).map(lambda parts: "+".join(map(str, parts))),
    st.text(max_size=20),
)


@given(partition_texts)
@settings(max_examples=300, deadline=None)
def test_partition_parse_fuzz_round_trips_or_refuses(text):
    try:
        lam = Partition.parse(text)
    except ValueError:
        return
    assert isinstance(lam, Partition)
    assert Partition.parse(str(lam)) == lam


#: an r of at most two characters keeps gen_binom's row product small
r_texts = st.integers(-2, 40).map(str) | st.text(max_size=2)


@given(
    st.one_of(
        st.tuples(st.just("zvalue"), partition_texts),
        st.tuples(st.just("genbinom"), partition_texts, r_texts),
        # wrong arity, options and stray flags
        st.tuples(
            st.sampled_from(["zvalue", "genbinom"]),
            st.lists(partition_texts | st.sampled_from(["-h", "--", "--len", "-1"]), max_size=3),
        ).map(lambda drawn: (drawn[0], *drawn[1])),
    )
)
@example(("genbinom", "3", "--", "--"))  # argparse's r was [], not an int
@settings(max_examples=300, deadline=None)
def test_argv_fuzz_exits_cleanly(argv):
    # capsys is not reset between drawn inputs, so each run gets its own streams
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
