"""The import-light runtime: `import discrim` loads no submodule yet keeps
every public name, each subcommand loads only its own engines, the package
and the CLI load neither numpy nor mpmath, commands that never reach a numpy
kernel stay free of it however long their first-collision scans run, no
module imports a name it never uses, and the constants that used to come
from those libraries are checked against them."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
import sympy

from discrim import census, cli, numtheory
from discrim.numtheory import mult_order

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import sys
{body}
heavy = sorted(m for m in ("numpy", "mpmath") if m in sys.modules)
print("heavy:" + ",".join(heavy))
"""


def run_checked(body: str) -> tuple[str, list[str]]:
    """Run `body` in a fresh interpreter: (heavy modules loaded at the end,
    the lines it printed before)."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHECK.format(body=body)], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    *printed, heavy = proc.stdout.splitlines()
    return heavy.removeprefix("heavy:"), printed


def test_importing_the_cli_loads_neither_numpy_nor_mpmath():
    assert run_checked("import discrim, discrim.cli")[0] == ""


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('discrim.'))))"

# the names the package exported when `import discrim` loaded every module,
# by the module that defines them
PUBLIC = {
    "census": ["ARTIN_CONSTANT", "BETA", "DensityReport", "FsetRecord", "PrimeClassRecord",
               "census_scan", "classify_prime", "fset_count", "fset_member_interval",
               "fset_member_weyl", "fset_scan_checked", "fset_scan_interval"],
    "charsum": ["CharSumReport", "bplusb_bound_check", "build_A", "char_sum_report",
                "max_nontrivial_char_sum", "pair_count_identity_check"],
    "discriminator": ["DiscriminatorRecord", "NonValueCertificate", "collision_certificate",
                      "discriminator_brute", "discriminator_table", "image_of_discriminator",
                      "nonvalue_screen", "recheck_certificate", "recheck_collision_certificate",
                      "salajan_discriminator_checked", "salajan_discriminator_closed",
                      "table_ranges", "verify_discriminates"],
    "numtheory": ["artin_constant", "factorize", "is_prime", "lte_valuation", "mult_order",
                  "padic_valuation", "primes_up_to", "smallest_primitive_root"],
    "periods": ["PeriodInfo", "incongruence_index", "iota_equals_rho_scan", "iota_prime_bound",
                "period_brute", "prime_lemma_bound", "salajan_period_checked",
                "salajan_period_formula"],
    "sequences": ["CapExceeded", "MethodsDisagree", "SequenceNotAdmissible", "SequenceSpec",
                  "linear_recurrence", "parse_spec", "polynomial", "salajan", "salajan_term_mod",
                  "term_exact"],
    "verify": ["CheckResult", "run_suites"],
}


def test_importing_the_package_loads_no_submodule():
    assert run_checked("import json, discrim\n" + LOADED) == ("", ["[]"])


def test_every_public_name_is_listed_and_is_its_modules_object():
    # dir() lists the names without loading a module; each name then loads
    # its module and is that module's object, as is each module's own name
    assert sum(map(len, PUBLIC.values())) == 59
    body = (f"public = {PUBLIC!r}\n"
            "import importlib, json, discrim\n"
            "listed = set(dir(discrim))\n" + LOADED + "\n"
            "print(sorted(n for names in public.values() for n in names if n not in listed))\n"
            "home = lambda module: importlib.import_module('discrim.' + module)\n"
            "print(sorted(n for module, names in public.items() for n in names\n"
            "             if getattr(discrim, n) is not getattr(home(module), n)))\n"
            "print(sorted(m for m in public if getattr(discrim, m) is not home(m)))")
    assert run_checked(body)[1] == ["[]", "[]", "[]", "[]"]


def test_a_loaded_module_binds_its_names_as_plain_attributes():
    # bound as the module loads, not on first lookup, so that a lookup is a
    # dict hit and no name appears later (perfbench's tracer snapshots them);
    # once all are bound the package is a plain module without __getattr__,
    # whose attribute loads CPython specializes
    body = (f"public = {PUBLIC!r}\n"
            "import types, discrim\n"
            "print('nonvalue_screen' in vars(discrim), type(discrim) is types.ModuleType)\n"
            "from discrim import verify\n"
            "print('nonvalue_screen' in vars(discrim), type(discrim) is types.ModuleType)\n"
            "print(sorted(n for names in public.values() for n in names if n not in vars(discrim)))\n"
            "print('__getattr__' in vars(discrim), len(dir(discrim)) > 59)")
    assert run_checked(body)[1] == ["False False", "True True", "[]", "False True"]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names that an import binds and the module never reads; a name read
    only in an annotation, quoted or not, counts as read."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        note = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            read.update(n.id for n in ast.walk(ast.parse(note.value)) if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("path", sorted(p.name for p in (ROOT / "src" / "discrim").glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_module_imports_a_name_it_never_uses(path):
    # __init__ imports names only to re-export them
    source = (ROOT / "src" / "discrim" / path).read_text()
    assert _unused_imports(ast.parse(source)) == []


def test_unused_import_check_sees_annotations_and_unused_names():
    source = ("from __future__ import annotations\n"
              "from typing import TYPE_CHECKING\n"
              "import os.path\n"
              "from .sequences import EXACT_TERM_BITS, MARK_BOUND as BOUND, SequenceSpec\n"
              "if TYPE_CHECKING:\n"
              "    from array import array\n"
              "def f(spec: SequenceSpec) -> 'array':\n"
              "    return os.path.sep\n")
    assert _unused_imports(ast.parse(source)) == ["BOUND (line 4)", "EXACT_TERM_BITS (line 4)"]


def _discrim_imports(tree: ast.Module) -> set[str]:
    """The `discrim` modules that a module imports, anywhere in its body,
    by relative or absolute name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["discrim" if node.level else "", node.module]))
            names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("discrim."))
    return found


def test_the_discriminator_and_the_character_sums_import_nothing_of_each_other():
    # the prime lemma sits in periods beside iota_prime_bound, so the D(n)
    # core needs no character sums, and these need no D(n) or period code
    def imports(name):
        return _discrim_imports(ast.parse((ROOT / "src" / "discrim" / name).read_text()))

    assert "charsum" not in imports("discriminator.py")
    assert imports("charsum.py") & {"discriminator", "periods"} == set()


def test_discrim_import_check_sees_relative_absolute_and_local_imports():
    source = ("from . import census as c\n"
              "from .charsum import build_A\n"
              "import discrim.periods, numpy\n"
              "from discrim import verify\n"
              "import discriminator\n"
              "def f():\n"
              "    from .sequences import salajan\n")
    assert _discrim_imports(ast.parse(source)) == {"census", "charsum", "periods", "sequences", "verify"}


LAZY_MODULES = {"numpy", "_blake2"}


def _function_local_imports(node: ast.AST, func: str | None = None) -> list[str]:
    """'function: module' for each import inside a function body, named by
    the innermost function, that loads a module other than LAZY_MODULES."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = ["." * node.level + (node.module or "")]
    else:
        names = []
    found = [f"{func}: {name}" for name in names
             if func is not None and name.partition(".")[0] not in LAZY_MODULES]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        func = node.name
    for child in ast.iter_child_nodes(node):
        found += _function_local_imports(child, func)
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p.name for p in (ROOT / "src" / "discrim").glob("*.py")))
def test_functions_import_only_what_loads_lazily(path):
    # numpy stays out of `import discrim.cli`, and blake2b is taken from
    # _blake2 so that hashlib does not load OpenSSL; any other module is
    # imported once, at the top
    source = (ROOT / "src" / "discrim" / path).read_text()
    assert _function_local_imports(ast.parse(source)) == []


def test_function_local_import_check_sees_nested_and_relative_imports():
    source = ("from array import array\n"
              "def f():\n"
              "    import numpy as np\n"
              "    from array import array\n"
              "    from _blake2 import blake2b\n"
              "    from hashlib import blake2b\n"
              "    def g():\n"
              "        from . import census\n"
              "        import os.path, numpy.fft\n")
    assert _function_local_imports(ast.parse(source)) == ["f: array", "f: hashlib", "g: .", "g: os.path"]


def test_importing_the_cli_builds_no_dataclasses():
    # compared with the modules loaded before the import, so a site hook
    # that loads either one first cannot fail the test
    body = ("before = set(sys.modules)\n"
            "import discrim, discrim.cli\n"
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert run_checked(body)[1] == ["[]"]


CLI_RUN = """
import contextlib, io, json
from discrim import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.run({argv!r})
print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


@pytest.mark.parametrize("argv", [
    ["discriminate", "--n", "123456", "--method", "closed"],
    ["table", "--max", "16500", "--format", "csv"],
    ["period", "--d", "5119", "--format", "json"],
    ["fset", "--max", "40"],
    ["discriminate", "--seq", "poly:0,0,1", "--n", "108", "--method", "brute"],
    # first-collision scans run in Python however long they are
    ["discriminate", "--n", "1567", "--method", "both", "--format", "json"],
    ["discriminate", "--seq", "linrec:2,3,2,1", "--n", "1000", "--method", "brute"],
    ["discriminate", "--seq", "linrec:1,2,1,3", "--n", "500", "--method", "brute"],
    ["iota", "--range", "2361:2410", "--format", "json"],
    ["screen", "--range", "10000:10099", "--format", "csv"],
    ["iota", "--m", "1048576"],
    # rows above n_max are rechecked from committed pairs, with no row sieve
    ["verify", "--suite", "theorem1", "--nmax", "64"],
    # below SMALL_SIEVE_LIMIT the census and the Artin product sieve one list
    ["census", "--x", "40000", "--format", "json"],
    ["artin", "--prime-limit", "100000", "--format", "json"],
], ids=["discriminate", "table", "period", "fset", "discriminate-poly", "discriminate-both",
        "discriminate-linrec-2321", "discriminate-linrec-1213", "iota-range", "screen-range",
        "iota-long", "verify-theorem1", "census", "artin"])
def test_commands_without_a_numpy_kernel_stay_free_of_it(argv, capsys):
    # the same exit code and output as the command gives in this process
    heavy, printed = run_checked(CLI_RUN.format(argv=argv))
    assert heavy == ""
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert json.loads(printed[-1]) == [code, captured.out, captured.err]
    assert code == (1 if "linrec:1,2,1,3" in argv else 0)


@pytest.mark.parametrize("argv, unloaded", [
    (["period", "--d", "5119"], {"census", "charsum", "discriminator", "verify"}),
    (["table", "--max", "100"], {"charsum", "verify"}),
    (["screen", "--d", "307"], {"charsum", "verify"}),
    (["iota", "--m", "29"], {"census", "charsum", "discriminator", "verify"}),
    (["charsum", "--p", "13"], {"census", "discriminator", "periods", "verify"}),
    (["census", "--x", "40000"], {"charsum", "discriminator", "periods", "verify"}),
], ids=["period", "table", "screen", "iota", "charsum", "census"])
def test_a_subcommand_loads_only_its_own_engines(argv, unloaded):
    printed = run_checked(CLI_RUN.format(argv=argv) + LOADED)[1]
    assert json.loads(printed[-2])[0] == 0
    assert {m.removeprefix("discrim.") for m in json.loads(printed[-1])} & unloaded == set()


def test_a_lone_period_formula_builds_one_fixed_table():
    # importing the CLI builds no table; the first formula call builds the
    # one smallest-prime-factor table, and the next one reuses it
    body = ("from discrim import cli, numtheory, periods\n"
            "print(len(numtheory._spf), periods._PRIME_POWER_ORDERS)\n"
            "print(periods.salajan_period_formula(99991))\n"
            "table = numtheory._spf\n"
            "print(periods.salajan_period_formula(99989).period)\n"
            "print(len(table), numtheory._spf is table, sorted(periods._PRIME_POWER_ORDERS))")
    heavy, printed = run_checked(body)
    assert heavy == ""
    assert printed == ["0 {}", "PeriodInfo(modulus=99991, pre_period=1, period=19998)",
                       str(2 * mult_order(9, 4 * 99989)),
                       f"{numtheory.SPF_ENTRIES} True [4, 99989, 99991]"]


def test_alpha_matches_mpmath_at_300_bits():
    with mpmath.workprec(300):
        want = int(mpmath.floor(mpmath.log(5) / mpmath.log(2) * mpmath.mpf(2) ** 192))
    assert census._ALPHA_FIX == want


def test_small_primes_match_sympy():
    assert numtheory._SMALL_PRIMES == list(sympy.primerange(2, 4097))
    assert numtheory._small_sieve(1) == [] and numtheory._small_sieve(2) == [2]
