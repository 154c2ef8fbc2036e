"""The check-suite fan-out behind ``--threads``: worker count, byte-identity
with a sequential run, and failures that behave as they do in one process.

No test here starts more than one child process.
"""

import inspect
import json
import os
import pickle
import signal
import time

import pytest

from orbitcoh import checks, errors
from orbitcoh.checks import run_checks, worker_count
from orbitcoh.cli import main


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def without_seconds(out):
    doc = json.loads(out)
    for report in doc["reports"]:
        for check in report["checks"]:
            del check["seconds"]
    return doc


def affinity(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def test_worker_count_is_bounded_by_threads_checks_and_cpus(monkeypatch):
    affinity(monkeypatch, 2)
    assert worker_count(1000000, 30) == 2
    assert worker_count(1, 30) == 1
    affinity(monkeypatch, 16)
    assert worker_count(8, 3) == 3
    assert worker_count(8, 0) == 1
    affinity(monkeypatch, 1)
    assert worker_count(1000000, 30) == 1


def test_worker_count_is_one_without_fork(monkeypatch):
    affinity(monkeypatch, 16)
    monkeypatch.delattr(os, "fork", raising=False)
    assert worker_count(8, 30) == 1


def _error_instances():
    for _, cls in inspect.getmembers(errors, inspect.isclass):
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__:
            yield cls(5, 3) if cls is errors.SizeLimitError else cls("message")


@pytest.mark.parametrize("exc", list(_error_instances()),
                         ids=lambda exc: type(exc).__name__)
def test_every_error_survives_a_pickle_round_trip(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)


@pytest.mark.parametrize("suite", ["oracle", "structures", "galois",
                                   "properties"])
def test_check_output_is_identical_across_thread_counts(capsys, suite):
    runs = [run_cli(capsys, "--threads", threads, "check", suite)
            for threads in ("1", "2")]
    assert runs[0][0] == runs[1][0] == 0
    assert without_seconds(runs[0][1]) == without_seconds(runs[1][1])
    assert runs[0][2] == runs[1][2] == ""


def _fake_suite(monkeypatch, *fns):
    named = [(f"fake/{i}", fn) for i, fn in enumerate(fns)]
    monkeypatch.setitem(checks.SUITES, "galois",
                        lambda threads=1: run_checks("galois", named, threads))


def _both_thread_counts(capsys, monkeypatch):
    affinity(monkeypatch, 2)
    return [run_cli(capsys, "--threads", threads, "check", "galois")
            for threads in ("1", "2")]


def _sleep_then(seconds, result=None, exc=None):
    def check():
        time.sleep(seconds)
        if exc is not None:
            raise exc
        return result
    return check


def _fails():
    raise AssertionError("fake failure")


def test_a_failed_assertion_keeps_its_slot(capsys, monkeypatch):
    _fake_suite(monkeypatch, _sleep_then(0.2, "first"), _fails,
                _sleep_then(0.0, "third"))
    runs = _both_thread_counts(capsys, monkeypatch)
    assert runs[0][0] == runs[1][0] == 1
    docs = [without_seconds(out) for _, out, _ in runs]
    assert docs[0] == docs[1]
    assert [(c["detail"], c["passed"]) for c in docs[0]["reports"][0]["checks"]] \
        == [("first", True), ("fake failure", False), ("third", True)]


def test_the_first_check_to_raise_sets_the_error(capsys, monkeypatch):
    # one worker raises the later error at once, the other the earlier one
    # after a pause: either may be the child, and the earlier error wins
    _fake_suite(monkeypatch,
                _sleep_then(0.3, exc=errors.BadParametersError("earlier")),
                _sleep_then(0.0, exc=errors.SizeLimitError(5, 3)))
    runs = _both_thread_counts(capsys, monkeypatch)
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "validation",
                                        "message": "earlier"}


def test_an_error_from_a_child_reaches_the_parent(capsys, monkeypatch):
    parent = os.getpid()

    def raises_in_child():
        if os.getpid() != parent:
            raise errors.SizeLimitError(5, 3)
        time.sleep(0.3)

    _fake_suite(monkeypatch, raises_in_child, raises_in_child)
    affinity(monkeypatch, 2)
    code, out, err = run_cli(capsys, "--threads", "2", "check", "galois")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {
        "type": "size-limit", "message": str(errors.SizeLimitError(5, 3))}


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_a_dead_worker_is_an_internal_error(capsys, monkeypatch, death):
    parent = os.getpid()

    def dies_in_child():
        if os.getpid() != parent:
            if death == "exit":
                os._exit(7)
            os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(0.3)

    _fake_suite(monkeypatch, dies_in_child, dies_in_child)
    affinity(monkeypatch, 2)
    code, out, err = run_cli(capsys, "--threads", "2", "check", "galois")
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "internal"
    assert "ended without reporting" in error["message"]


class _Interrupt(BaseException):
    pass


def test_an_interrupted_parent_kills_its_child(monkeypatch):
    parent = os.getpid()

    def check():
        if os.getpid() != parent:
            time.sleep(60)
        time.sleep(0.2)
        raise _Interrupt

    affinity(monkeypatch, 2)
    start = time.perf_counter()
    with pytest.raises(_Interrupt):
        run_checks("fake", [("a", check), ("b", check)], threads=2)
    assert time.perf_counter() - start < 10
