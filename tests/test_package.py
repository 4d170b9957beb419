"""Tests of the package surface and of the public records: the top-level
names, which modules ``import diracpol`` loads, and the records' repr,
value semantics and immutability."""

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


class TestSurface:
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
