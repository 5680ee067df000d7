"""Public API surface and error-hierarchy tests."""

import pytest

import repro
from repro import errors


class TestTopLevelAPI:
    def test_version(self):
        assert repro.__version__

    def test_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_superoptimize_signature(self):
        result = repro.superoptimize(
            "np.transpose(np.transpose(A))",
            inputs={"A": (8, 8)},
            cost_model="flops",
            name="roundtrip",
        )
        assert result.improved
        assert result.program.name == "roundtrip"

    def test_shape_tuples_accepted(self):
        program = repro.parse("A + A", {"A": repro.float_tensor(2, 2)})
        assert program.node.type.shape == (2, 2)


class TestErrorHierarchy:
    def test_all_derive_from_stenso_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj is not Exception:
                assert issubclass(obj, errors.StensoError), name

    def test_parse_errors_catchable_at_base(self):
        with pytest.raises(errors.StensoError):
            repro.parse("A +", {"A": repro.float_tensor(2)})

    def test_unsupported_op_is_parse_error(self):
        assert issubclass(errors.UnsupportedOpError, errors.ParseError)


class TestSubpackageImports:
    @pytest.mark.parametrize(
        "module",
        [
            "repro.ir",
            "repro.symexec",
            "repro.synth",
            "repro.cost",
            "repro.backends",
            "repro.baselines",
            "repro.bench",
            "repro.rules",
            "repro.egraph",
            "repro.pipeline",
            "repro.report",
            "repro.cli.main",
        ],
    )
    def test_importable(self, module):
        __import__(module)

    def test_subpackage_all_lists_resolve(self):
        import repro.backends as backends
        import repro.bench as bench
        import repro.cost as cost
        import repro.egraph as egraph
        import repro.ir as ir
        import repro.rules as rules
        import repro.symexec as symexec
        import repro.synth as synth

        for module in (ir, symexec, synth, cost, backends, bench, rules, egraph):
            for name in getattr(module, "__all__", []):
                assert hasattr(module, name), f"{module.__name__}.{name}"
