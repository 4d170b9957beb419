"""Tests of the package surface and of the public records: the top-level
names, which modules ``import diracpol`` loads, and the records' repr,
value semantics and immutability."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diracpol
from diracpol import (
    AtomSpec,
    ChannelIndex,
    ConstantSet,
    Hyp3F2Params,
    PolarizabilityResult,
    SeriesDiagnostics,
    SupercriticalError,
    TableRow,
)
from diracpol.sturmian import RadialIntegralPair

SRC = Path(__file__).resolve().parents[1] / "src"

# The state in src/ that outlives a call: each name holds an lru_cache,
# functools.cache or global.  A new one has to be added here, and README
# lists these names (tests/test_readme.py).
PROCESS_GLOBAL_STATE = frozenset({
    "cli._build_parser",
    "specfun._last_sum",
    "specfun._reduced_series",
    "sturmian._channel",
    "sturmian._log_factorial",
})


def _referenced_names(path: Path) -> set[str]:
    """Every name, attribute and imported name that the module's code uses."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _imported_roots(nodes) -> set[str]:
    """The top-level packages that the import statements among ``nodes`` name."""
    imported = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            imported.add(node.module.split(".")[0])
    return imported


def _oracle_imports(tree: ast.Module) -> list[str | None]:
    """For each import of the Sturmian oracle in the module, the top-level
    function that holds it, or None at module level.  ``from . import
    sturmian``, ``import diracpol.sturmian`` and a module name given as a
    string (``importlib.import_module``) count too."""

    def imports_oracle(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names = [node.value]
        else:
            return False
        return any(name.rsplit(".", 1)[-1] == "sturmian" for name in names)

    owners = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        owners.extend(owner for node in ast.walk(top) if imports_oracle(node))
    return owners


class TestSurface:
    def test_closed_form_modules_name_no_oracle(self):
        # The oracle checks the closed form and imports it, never the other
        # way round; the command line loads it only for the crosscheck.
        for stem in ("atom", "specfun", "polarizability"):
            tree = ast.parse((SRC / "diracpol" / f"{stem}.py").read_text())
            assert _oracle_imports(tree) == [], stem
            defined = {
                node.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            }
            names = _referenced_names(SRC / "diracpol" / f"{stem}.py") | defined
            assert "polarizability_sturmian" not in names, stem
        cli_tree = ast.parse((SRC / "diracpol" / "cli.py").read_text())
        assert _oracle_imports(cli_tree) == ["_run_crosscheck"]
        from diracpol import polarizability, sturmian

        assert not hasattr(polarizability, "polarizability_sturmian")
        assert sturmian.polarizability_sturmian.__module__ == sturmian.__name__

    def test_every_public_name_resolves(self):
        for name in diracpol.__all__:
            assert getattr(diracpol, name) is not None, name

    def test_star_import_binds_every_public_name(self):
        namespace = {}
        exec("from diracpol import *", namespace)
        assert set(diracpol.__all__) <= namespace.keys()

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            diracpol.no_such_name

    def test_lazy_names_are_the_module_functions(self):
        from diracpol import tablegen

        assert diracpol.generate_table is tablegen.generate_table
        # Not stored in the package namespace: a function rebound in its
        # module for a while (as a tracer does) is seen on the next access.
        assert "generate_table" not in vars(diracpol)
        assert set(diracpol.__all__) <= set(dir(diracpol))

    def test_oracle_stays_out_of_the_public_names(self):
        from diracpol import sturmian

        for name in diracpol.__all__:
            assert getattr(getattr(diracpol, name), "__module__", None) != sturmian.__name__, name
        assert "RadialIntegralPair" in vars(sturmian)
        assert "polarizability_sturmian" not in diracpol.__all__
        for name in ("r_channel_series", "channel_first_order_integrals", "polarizability_sturmian"):
            with pytest.raises(AttributeError):
                getattr(diracpol, name)

    def test_validation_helpers_live_only_in_the_oracle(self):
        from diracpol import specfun, sturmian
        from tests import reference

        # Every module of src/, a new one included.
        modules = [diracpol] + [
            importlib.import_module(f"diracpol.{path.stem}")
            for path in sorted((SRC / "diracpol").glob("*.py"))
            if path.stem != "__init__"
        ]
        for name in (
            "radial_PQ",
            "r_channel_two_term",
            "gamma_ratio",
            "hyp3f2_contiguous_rhs",
            "axial_spinor",
            "cos_matrix_element",
            "first_order_shift",
        ):
            assert getattr(reference, name).__module__ == reference.__name__, name
            for module in modules:
                assert not hasattr(module, name), (module.__name__, name)
        assert sturmian._laguerre_table.__module__ == sturmian.__name__
        assert not hasattr(specfun, "_laguerre_table")
        assert len(diracpol.__all__) == 28

    def test_only_specfun_knows_how_a_3f2_is_summed(self):
        # The closed form asks specfun for a 3F2 and its log-gammas; the
        # chunks, their two producers and the rule between them, their
        # prediction, the stop rule and the exact sum stay inside it.
        tree = ast.parse((SRC / "diracpol" / "polarizability.py").read_text())
        imported = [
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "specfun"
            for alias in node.names
        ]
        assert sorted(imported) == ["Hyp3F2Params", "SeriesDiagnostics", "hyp3f2_unit", "log_gamma"]
        for name in ("hyp3f2_minus_one", "log_gamma_drop", "_MAX_BATCH"):
            assert not hasattr(diracpol.specfun, name), name
        internals = {
            "_CHUNK",
            "_convergent_terms",
            "_exact_sum",
            "_loaded_numpy",
            "_predicted_chunks",
            "_pure_terms",
            "_term_rows",
        }
        for path in sorted((SRC / "diracpol").glob("*.py")):
            if path.name != "specfun.py":
                assert _referenced_names(path).isdisjoint(internals), path.name

    def test_no_module_imports_numpy_when_it_loads(self):
        # What runs at import, in every module.
        def module_level(body):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                yield node
                for field in ("body", "orelse", "finalbody", "handlers"):
                    yield from module_level(getattr(node, field, []))

        for path in sorted((SRC / "diracpol").glob("*.py")):
            nodes = module_level(ast.parse(path.read_text()).body)
            assert "numpy" not in _imported_roots(nodes), path.name

    def test_only_specfun_imports_numpy(self):
        # Anywhere in a module, function bodies included: the code that only
        # checks results on arrays is test code.
        for path in sorted((SRC / "diracpol").glob("*.py")):
            if path.name == "specfun.py":
                continue
            nodes = ast.walk(ast.parse(path.read_text()))
            assert "numpy" not in _imported_roots(nodes), path.name

    def test_specfun_imports_numpy_nowhere(self):
        # specfun uses numpy only when the caller has loaded it, so with the
        # test above no module of diracpol imports numpy anywhere.
        nodes = ast.walk(ast.parse((SRC / "diracpol" / "specfun.py").read_text()))
        assert "numpy" not in _imported_roots(nodes)

    def test_process_global_state_is_on_the_allow_list(self):
        # Every lru_cache, functools.cache and global statement in the
        # package, by the module-level name that holds the state.
        def is_cache(node) -> bool:
            if isinstance(node, ast.Call):
                node = node.func
            if isinstance(node, ast.Attribute):
                module, name = getattr(node.value, "id", None), node.attr
            else:
                module, name = "functools", getattr(node, "id", None)
            return module == "functools" and name in ("cache", "lru_cache")

        holders, uses, decorations = set(), 0, 0
        for path in sorted((SRC / "diracpol").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Global):
                    holders.update(f"{path.stem}.{name}" for name in node.names)
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cached = sum(is_cache(d) for d in node.decorator_list)
                    if cached:
                        holders.add(f"{path.stem}.{node.name}")
                        decorations += cached
                elif isinstance(node, (ast.Name, ast.Attribute)):
                    uses += is_cache(node)
        assert holders == PROCESS_GLOBAL_STATE
        # No cache built other than as a decorator, e.g. f = lru_cache()(g).
        assert uses == decorations

    def test_only_the_program_touches_the_collector(self):
        # The program freezes its start-up heap; run() and the library leave
        # the collector as they find it.
        uses = []
        for path in sorted((SRC / "diracpol").glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                owner = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
                uses.extend(
                    (path.stem, owner, node.attr)
                    for node in ast.walk(top)
                    if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "gc"
                )
        assert uses == [("cli", "main", "freeze")]

    def test_import_loads_no_numpy_and_its_users_still_work(self):
        script = (
            "import sys, diracpol; "
            "print('numpy' in sys.modules); "
            "print(repr(diracpol.polarizability_planar(diracpol.AtomSpec(26)).value_a0_cubed))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        value = diracpol.polarizability_planar(AtomSpec(26)).value_a0_cubed
        assert proc.stdout.splitlines() == ["False", repr(value)]

    def test_import_loads_neither_oracle_nor_table_layer(self):
        script = (
            "import sys, diracpol; "
            "print(' '.join(m for m in ('diracpol.sturmian', 'diracpol.tablegen') "
            "if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []


DIAG = SeriesDiagnostics(513, 1.5e-17)

# Each record with its repr, taken from the frozen-dataclass records these
# NamedTuples replaced.
REPRS = [
    (DIAG, "SeriesDiagnostics(terms_used=513, tail_estimate=1.5e-17)"),
    (
        Hyp3F2Params(0.5, 0.5, 2.5, 3.5, 2.25),
        "Hyp3F2Params(a1=0.5, a2=0.5, a3=2.5, b1=3.5, b2=2.25)",
    ),
    (AtomSpec(26.0), "AtomSpec(Z=26.0, dimension='planar', alpha_inv=137.035999139)"),
    (AtomSpec(3, "spatial", 137.0), "AtomSpec(Z=3, dimension='spatial', alpha_inv=137.0)"),
    (ChannelIndex(-1.5), "ChannelIndex(kappa=-1.5)"),
    (
        PolarizabilityResult(3.140571790007269e-07, 0.14351659343103618, "closed_form", DIAG),
        "PolarizabilityResult(value_a0_cubed=3.140571790007269e-07, "
        "scaled_Z4=0.14351659343103618, method='closed_form', "
        "diagnostics=SeriesDiagnostics(terms_used=513, tail_estimate=1.5e-17))",
    ),
    (
        PolarizabilityResult(3.1e-07, 0.14, "sturmian_series", SeriesDiagnostics(79, 9.4e-13)),
        "PolarizabilityResult(value_a0_cubed=3.1e-07, scaled_Z4=0.14, "
        "method='sturmian_series', diagnostics=SeriesDiagnostics(terms_used=79, "
        "tail_estimate=9.4e-13))",
    ),
    (RadialIntegralPair(0.25, -1.0), "RadialIntegralPair(plain=0.25, mu_weighted=-1.0)"),
    (ConstantSet(), "ConstantSet(alpha_inv=137.035999139, alpha_inv_sigma=3.1e-08)"),
    (
        TableRow(1, 0.16403192235712913, 14, 15, "0.164031922357129", 1.3834289269709643e-14,
                 0.16403192235712913),
        "TableRow(Z=1, scaled_Z4=0.16403192235712913, sigma_last_two=14, digits=15, "
        "display='0.164031922357129', sigma_abs=1.3834289269709643e-14, "
        "value_a0_cubed=0.16403192235712913)",
    ),
]
RECORDS = [record for record, _ in REPRS]
IDS = [f"{type(record).__name__}-{i}" for i, record in enumerate(RECORDS)]


class TestRecords:
    @pytest.mark.parametrize("record, text", REPRS, ids=IDS)
    def test_repr(self, record, text):
        assert repr(record) == text

    def test_computed_records_keep_their_repr(self):
        result = diracpol.polarizability_planar(AtomSpec(26.0))
        assert repr(result).startswith(
            "PolarizabilityResult(value_a0_cubed=3.140571790007269e-07, "
            "scaled_Z4=0.14351659343103618, method='closed_form', "
            "diagnostics=SeriesDiagnostics(terms_used=513, "
        )
        row = diracpol.generate_table(1, 1)[0]
        assert repr(row) == REPRS[-1][1]

    @pytest.mark.parametrize("record", RECORDS, ids=IDS)
    def test_value_semantics(self, record):
        copy = type(record)(*record)
        assert copy == record and copy is not record
        assert hash(copy) == hash(record)
        assert len({record, copy}) == 1
        # The one difference from the dataclasses: a record equals the plain
        # tuple of its fields.
        assert record == tuple(record)

    @pytest.mark.parametrize("record", RECORDS, ids=IDS)
    def test_fields_are_read_only(self, record):
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_replace_validates(self):
        assert AtomSpec(26.0)._replace(Z=1.0) == AtomSpec(1.0)
        with pytest.raises(SupercriticalError):
            AtomSpec(26.0)._replace(Z=70.0)
        with pytest.raises(ValueError, match="kappa must be"):
            ChannelIndex(0.5)._replace(kappa=0.25)
        with pytest.raises(ValueError, match="b1=0.0 is a non-positive integer"):
            Hyp3F2Params(0.5, 0.5, 2.5, 3.5, 2.25)._replace(b1=0.0)
        with pytest.raises(ValueError, match="alpha_inv_sigma must be non-negative"):
            ConstantSet()._replace(alpha_inv_sigma=-1.0)
