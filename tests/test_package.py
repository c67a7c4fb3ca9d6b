"""The package's public surface: the names in ``__all__``, the README's
library example, and what importing the CLI loads."""

import functools
import os
import subprocess
import sys

import hurwitzcf

E_FLAGS = ["--alpha", "1", "--b0", "2", "--b1", "2", "--d", "3", "--r", "2"]


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from hurwitzcf import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(hurwitzcf.__all__)
    for name, value in namespace.items():
        assert value is getattr(hurwitzcf, name)


def test_readme_magic_pairs_example():
    from hurwitzcf import CFParams, magic_pairs
    assert magic_pairs(CFParams(1, 2, 2, 3, 2)) == ((6, 4), (1, 16))


def test_readme_limit_example():
    from hurwitzcf import CFParams, xi_limit
    # e - 1 = 1.71828...69995957..., rounded half up at the 50th digit
    assert xi_limit(CFParams(1, 2, 2, 3, 2), 50).decimal(50, certified=True) \
        == "1.71828182845904523536028747135266249775724709369996"


def _run(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, importing this checkout's
    hurwitzcf."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(hurwitzcf.__file__)),
        os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)


def test_python_dash_m_runs_the_cli():
    proc = _run("-m", "hurwitzcf", "verify", "--suite", "cf")
    assert (proc.returncode, proc.stdout) == (0, "suite cf: ok\n")


@functools.lru_cache(maxsize=None)
def _loaded(code: str) -> frozenset:
    """The modules loaded after running `code` in a fresh interpreter that
    imports this checkout's hurwitzcf."""
    probe = code + "\nimport sys\nprint(*sys.modules, file=sys.stderr)"
    proc = _run("-c", probe)
    proc.check_returncode()
    return frozenset(proc.stderr.split())


def _added_modules(code: str) -> set:
    """The modules that `code` loads beyond those of `pass`."""
    return _loaded(code) - _loaded("pass")


def test_cli_import_skips_dataclasses_and_inspect():
    added = _added_modules("import hurwitzcf.cli")
    assert "hurwitzcf.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_json_loaded_only_under_json():
    run = "from hurwitzcf.cli import run\nrun({!r})"
    for verb in (["classify", *E_FLAGS], ["conv", *E_FLAGS, "--n", "3"],
                 ["poly", "--family", "fib", "--n-max", "3"]):
        assert "json" not in _added_modules(run.format(verb)), verb
        assert "json" in _added_modules(run.format(verb + ["--json"])), verb


def test_fractions_loaded_only_where_one_is_built():
    # fractions pulls decimal and numbers; limits, conv and poly build no
    # Fraction, and classify (its witness) may
    heavy = {"fractions", "decimal", "numbers"}
    assert not _added_modules("import hurwitzcf.cli") & heavy
    run = "from hurwitzcf.cli import run\nrun({!r})"
    for verb in (["limit", *E_FLAGS, "--digits", "116"],
                 ["conv", *E_FLAGS, "--n", "3"],
                 ["poly", "--family", "fib", "--n-max", "3"]):
        assert not _added_modules(run.format(verb)) & heavy, verb
