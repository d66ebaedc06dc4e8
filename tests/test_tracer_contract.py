"""The benchmark tracer still sees the library calls of CLI commands.

``perfbench/spans.py`` traces a run by rebinding the module attributes
that hold each public library function, and by patching the element
operators and ``AffineSpace.points`` in their class dicts.  A call the
CLI makes through a reference it captured earlier (say, when it built
its parser) bypasses the rebinding and drops out of the trace.  This
test loads the tracer from its file, unchanged, and checks the spans of
six commands.  ``hilbert inner`` is among them because it still adds
field elements, so the operator counters are seen through the CLI, and
``regularize zeta`` because it runs through the declared-action handler,
which looks its function up by name.  ``geometry lines`` reads line ids
and builds no point, so ``geometry degenerate`` shows ``AffineSpace.points``
through the CLI, and a direct ``enumerate_lines`` call under the same
tracer shows its span and its line count.
"""

import importlib.util
import pathlib

import finiverse.cli  # the tracer patches only modules already imported
from finiverse import cosmology, geometry
from finiverse.fields import make_prime_field

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_library_spans_of_cli_commands():
    spans = _load_spans()
    original = cosmology.lambda_from_density
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in (
            ["cosmo", "lambda"],
            ["cosmo", "density"],
            ["geometry", "lines", "--q", "3"],
            ["geometry", "degenerate", "--q", "3"],
            ["hilbert", "inner", "--p", "3", "--k", "2", "--u", "1:1,0:1", "--v", "2:0,1:1"],
            ["regularize", "zeta", "--s", "1"],
        ):
            assert finiverse.cli.dispatch(argv).exit_code == 0
        geometry.enumerate_lines(geometry.AffineSpace(make_prime_field(3), 2))
    finally:
        tracer.uninstall()
    assert cosmology.lambda_from_density is original
    names = [rec[spans.NAME] for rec in tracer.spans]
    assert names.count("cli.dispatch") == 6
    for name in (
        "cosmology.lambda_from_density",
        "cosmology.pointset_density",
        "fields.make_extension_field",
        "geometry.incidence_structure",
        "geometry.enumerate_lines",
        "geometry.points",
        "regularization.zeta_negative",
    ):
        assert name in names, name
    aggregate = spans.aggregate(tracer)
    assert aggregate["geometry.lines.built"] == 12
    assert aggregate["fields.add.calls"] > 0
