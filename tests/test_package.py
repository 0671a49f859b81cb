import argparse
import ast
import builtins
import importlib
import importlib.util
import json
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import mvmetric
from mvmetric.cli import build_parser, main

REMOVED = (
    "euclidean_multiview_distance",
    "top_eigenpairs",
    "stacked_objective",
    "update_projections",
    "mahalanobis_distance",
    "distance_weights",
    "standardize_views",
    "ScatterPair",
    "CrossCorrelation",
    "assemble_block_matrix",
    "compute_view_gains",
    "update_view_weights",
    "coupling_matrix",
    "compute_scatter",
    "compute_cross",
    "ConstraintSet",
)


def test_every_exported_name_resolves():
    assert len(set(mvmetric.__all__)) == len(mvmetric.__all__)
    for name in mvmetric.__all__:
        assert getattr(mvmetric, name) is not None


def test_test_only_helpers_are_not_exported():
    for name in REMOVED:
        assert name not in mvmetric.__all__
        assert not hasattr(mvmetric, name)


README = Path(__file__).resolve().parents[1] / "README.md"

# flags README may name that no mvmetric subcommand defines: pip's
README_ONLY_FLAGS = {"--no-build-isolation"}


def test_readme_library_example_runs(capsys):
    readme = README.read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    weights, accuracies = capsys.readouterr().out.splitlines()
    assert weights.startswith("[") and len(accuracies.split()) == 2


def test_readme_command_line_runs(tmp_path, monkeypatch):
    # CI runs the same block through the installed console script
    block = re.search(r"^## Command line\n+```bash\n(.*?)^```", README.read_text(), flags=re.S | re.M).group(1)
    commands = [shlex.split(line) for line in block.replace("\\\n", "").splitlines() if line.startswith("mvmetric ")]
    assert [argv[1] for argv in commands] == ["generate", "train", "eval", "check"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        written = [argv[i + 1] for i, flag in enumerate(argv) if flag in ("--out", "--csv")]
        assert written and all(Path(path).exists() for path in written), argv


def test_readme_names_the_trace_keys():
    bullet = re.search(r"^- \*\*The trace\.\*\*(.*?)(?=^- )", README.read_text(), flags=re.S | re.M).group(1)
    named = set(re.findall(r"`(\w+)`", re.search(r"Each trace entry holds (.*?)\.", bullet, flags=re.S).group(1)))
    ds = mvmetric.generate_synthetic(2, 6, [5, 4], noise_views={2}, seed=0)
    sp = mvmetric.split(ds, 8, seed=0)
    cs = mvmetric.build_constraints(ds.labels[sp.train_indices])
    for eta in (1.0, float("inf")):
        model = mvmetric.train(ds, sp, cs, mvmetric.Hyperparams(embed_dim=2, coupling_eta=eta))
        assert all(set(entry) == named for entry in model.trace), eta


def _subcommand_flags():
    """Each subcommand's option strings, argparse's ``--help`` left out."""
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: {flag for action in sub._actions if not isinstance(action, argparse._HelpAction)
               for flag in action.option_strings}
        for name, sub in subparsers.choices.items()
    }


def test_readme_names_every_flag_and_no_other():
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", README.read_text()))
    flags = _subcommand_flags()
    assert set(flags) == {"generate", "train", "eval", "check"}
    for command, defined in flags.items():
        assert defined - named == set(), f"README does not name these {command} flags"
    assert named - set().union(*flags.values()) == README_ONLY_FLAGS


MODULES = [mvmetric, *(importlib.import_module(f"mvmetric.{m.name}") for m in pkgutil.iter_modules(mvmetric.__path__))]
# the objective's notation in README formulas, not Python names
FORMULA = {"tr", "sqrt", "Phi"}


def _readme_names(text):
    """Names README's inline code spans call, or spell dotted from ``mvmetric`` or an exported name.

    Fenced blocks are left out (the library example runs on its own), and so
    are calls of Python builtins, of ``np.`` names and of ``FORMULA``.
    """
    prose = re.sub(r"^```.*?^```", "", text, flags=re.S | re.M)
    names = set()
    for span in re.findall(r"`([^`]+)`", prose):
        if not (lead := re.match(r"[A-Za-z_]\w*(?:\.\w+)*", span)):
            continue
        name = lead.group()
        head = name.split(".")[0]
        if span[lead.end():].startswith("("):
            if head not in dir(builtins) and head != "np" and name not in FORMULA:
                names.add(name)
        elif "." in name and (head == "mvmetric" or head in mvmetric.__all__):
            names.add(name)
    return names


def _resolves(name):
    """Whether ``name`` is an attribute path from ``mvmetric`` or from a name one of its modules holds."""
    head, *rest = name.split(".")
    found = [mvmetric] if head == "mvmetric" else [vars(m)[head] for m in MODULES if head in vars(m)]
    for attr in rest:
        found = [getattr(obj, attr) for obj in found if hasattr(obj, attr)]
    return bool(found)


def test_readme_names_resolve_in_the_package():
    sample = (
        "`split(ds, 8)`, `mvmetric.solver.compute_scatter`, `Hyperparams.resolved`, `tr(W^T Z W)`,\n"
        "`max(g, 0)`, `np.frombuffer(b)`, `labels`, `mvmetric train`, `doc.get(key)`\n"
        "```\nmissing_name(1)\n```\n"
    )
    assert _readme_names(sample) == {"split", "mvmetric.solver.compute_scatter", "Hyperparams.resolved", "doc.get"}
    # a stage named in the wrong module is the drift this catches
    assert not _resolves("mvmetric.solver.compute_scatter") and _resolves("mvmetric.scatter.compute_scatter")
    names = _readme_names(README.read_text())
    assert {"MultiviewMetricModel.project", "mvmetric.metric.TRIANGLE_SLACK", "build_constraints"} <= names
    assert sorted(name for name in names if not _resolves(name)) == []


def _stale_constants(text):
    """README's inline ``NAME = value`` spans whose value no ``mvmetric`` module holds under that name."""
    return [
        f"{name} = {value}"
        for name, value in re.findall(r"`([A-Z][A-Z0-9_]*) = ([^`]+)`", text)
        if not any(name in vars(m) and vars(m)[name] == ast.literal_eval(value) for m in MODULES)
    ]


def test_readme_constants_hold_their_values():
    sample = "`REFINE_SWEEPS = 30`, `MM_STEPS = 7`, `GONE = 1`, `q = s / s_prev`"
    assert _stale_constants(sample) == ["MM_STEPS = 7", "GONE = 1"]
    text = README.read_text()
    assert {"REFINE_SWEEPS", "STOP_MARGIN", "TRIANGLE_SLACK"} <= set(re.findall(r"`([A-Z][A-Z0-9_]*) = ", text))
    assert _stale_constants(text) == []


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# the benchmark's files that call the package; tier-1 does not run perfbench's own tests
BENCHMARK_FILES = ("harness.py", "tracing.py", "clock.py", "oracle.py")


def _dotted(node):
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _benchmark_names(tree):
    """``mvmetric`` names a module's code uses, spelled from ``mvmetric``.

    They are the names it imports from a ``mvmetric`` module, its attribute
    chains on a name bound by ``import mvmetric...`` (``mv.eval.train``), and
    the ``mvmetric`` (module, function) pairs of its ``TRACED_FUNCTIONS`` and
    ``BOUNDARIES``.
    """
    aliases, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "mvmetric":
                    # ``import mvmetric.eval`` binds ``mvmetric``, ``import mvmetric.eval as e`` binds ``e``
                    aliases[a.asname or "mvmetric"] = a.name if a.asname else "mvmetric"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mvmetric":
            names.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Assign) and _dotted(node.targets[0]) in ("TRACED_FUNCTIONS", "BOUNDARIES"):
            pairs = ast.literal_eval(node.value)
            names.update(f"{module}.{name}" for module, name, _ in pairs if module.split(".")[0] == "mvmetric")
    for node in ast.walk(tree):
        head, _, rest = (_dotted(node) or "").partition(".")
        if isinstance(node, ast.Attribute) and head in aliases:
            names.add(f"{aliases[head]}.{rest}")
    return names


def test_benchmark_names_resolve_in_the_package():
    sample = (
        "import mvmetric as mv\nfrom mvmetric.model import SIMPLEX_TOL\n"
        "mv.solver.stacked_objective(Z, blocks)\n"
        "BOUNDARIES = (('mvmetric.eval', 'knn_classify', 1), ('numpy.linalg', 'svd', 4))\n"
    )
    assert _benchmark_names(ast.parse(sample)) == {
        "mvmetric.model.SIMPLEX_TOL", "mvmetric.solver", "mvmetric.solver.stacked_objective",
        "mvmetric.eval.knn_classify",
    }
    # a deleted stage the benchmark still calls is the drift this catches
    assert not _resolves("mvmetric.solver.stacked_objective")
    names = set().union(*(_benchmark_names(ast.parse((PERFBENCH / f).read_text())) for f in BENCHMARK_FILES))
    assert {"mvmetric.train", "mvmetric.eval.THREADS_ENV_VAR", "mvmetric.solver.top_eigenpairs",
            "mvmetric.metric.view_distance", "mvmetric.model.ORTHONORMALITY_TOL"} <= names
    assert sorted(name for name in names if not _resolves(name)) == []


BENCHMARK_HASHES = PERFBENCH.parent / ".github" / "benchmark_hashes.py"


def _benchmark_hashes_in(tmp_path, monkeypatch, seed):
    """The hash script reading results from and writing hashes to ``tmp_path``, for one seed."""
    spec = importlib.util.spec_from_file_location("benchmark_hashes", BENCHMARK_HASHES)
    hashes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(hashes)
    monkeypatch.setattr(hashes, "OUT", tmp_path)
    monkeypatch.setattr(hashes, "HASHES", tmp_path / "hashes.json")
    monkeypatch.setattr(hashes, "SEEDS", (seed,))
    return hashes


def test_benchmark_hashes_read_each_result_file_s_provenance(tmp_path, monkeypatch, capsys):
    hashes = _benchmark_hashes_in(tmp_path, monkeypatch, 1)  # one result file per workload
    files = [tmp_path / f"{name}-seed1-trace0.json" for name in hashes.WORKLOADS]

    def write_results(*threads):
        for path, count in zip(files, threads):
            provenance = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0", "blas_threads": count}
            artifacts = {"model_sha256": [f"{path.name} model {i}" for i in range(2)], "report_sha256": path.name}
            path.write_text(json.dumps({"provenance": provenance, "artifacts": [json.dumps(artifacts)]}))

    # the last file read must not speak for the others, when comparing or when writing
    write_results(2, 1)
    for argv in ([], ["--write"]):
        assert hashes.main(argv) == 1
        err = capsys.readouterr().err
        assert "different provenance" in err and all(f"{path} " in err for path in files)
    assert not (tmp_path / "hashes.json").exists()
    write_results(1, 1)
    assert hashes.main(["--write"]) == 0
    assert json.loads((tmp_path / "hashes.json").read_text())["provenance"]["blas_threads"] == 1
    assert hashes.main([]) == 0
    # a difference says how many model hashes moved and whether the report's did
    committed = json.loads((tmp_path / "hashes.json").read_text())
    committed["artifacts"]["score-shifted seed 1"][0]["model_sha256"][1] = "pinned"
    (tmp_path / "hashes.json").write_text(json.dumps(committed))
    assert hashes.main([]) == 1
    err = capsys.readouterr().err
    assert "score-shifted seed 1: artifact hashes differ from hashes.json: 1 of 2 model hashes differ" in err
    assert "the report hash matches" in err
    # a result the committed file lacks, say a newly gated seed, is a difference
    committed = json.loads((tmp_path / "hashes.json").read_text())
    del committed["artifacts"]["wide-views seed 1"]
    (tmp_path / "hashes.json").write_text(json.dumps(committed))
    assert hashes.main([]) == 1
    assert "wide-views seed 1: artifact hashes differ from hashes.json: recorded on one side only" in (
        capsys.readouterr().err
    )


def test_benchmark_hashes_name_a_missing_result_file_and_its_run(tmp_path, monkeypatch, capsys):
    hashes = _benchmark_hashes_in(tmp_path, monkeypatch, 3)
    provenance = {"numpy": "2.4.6", "blas": "scipy-openblas 0.3.31.188.0", "blas_threads": 1}
    artifacts = json.dumps({"model_sha256": ["model"], "report_sha256": "report"})
    (tmp_path / "score-shifted-seed3-trace0.json").write_text(
        json.dumps({"provenance": provenance, "artifacts": [artifacts]})
    )
    for argv in ([], ["--write"]):
        assert hashes.main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {tmp_path / 'wide-views-seed3-trace0.json'} is missing: "
            "python3 perfbench/run.py --seconds 0 --seed 3 writes it\n"
        )
    assert not (tmp_path / "hashes.json").exists()


def _unused_imports(path):
    """Names a module imports but never loads; re-exports in ``__all__`` count as used."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    loaded = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in loaded | exported)


TESTS = Path(__file__).resolve().parent


def test_no_unused_imports():
    package = Path(mvmetric.__file__).resolve().parent
    modules = sorted(package.glob("*.py"))
    tests = sorted(TESTS.glob("*.py"))
    assert len(modules) > 1 and len(tests) > 1
    unused = {
        f"{path.parent.name}/{path.name}": found for path in modules + tests if (found := _unused_imports(path))
    }
    assert unused == {}


def _unreferenced_definitions(sources, exported):
    """Module-level functions and classes that no other statement of ``sources`` loads, by name or
    as an attribute, and that ``exported`` does not list; a definition's use of its own name does not count."""
    body = [stmt for source in sources for stmt in ast.parse(source).body]
    loads = [
        {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(stmt)
         if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
        for stmt in body
    ]
    return sorted(
        stmt.name for i, stmt in enumerate(body)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name not in exported
        and not any(stmt.name in names for j, names in enumerate(loads) if j != i)
    )


def test_every_definition_is_used_or_exported():
    sample = "def used(): pass\ndef unused(): used()\ndef itself(): itself()\nclass Exported: pass\n"
    assert _unreferenced_definitions([sample], {"Exported"}) == ["itself", "unused"]
    package = Path(mvmetric.__file__).resolve().parent
    sources = [path.read_text() for path in sorted(package.glob("*.py"))]
    assert _unreferenced_definitions(sources, set(mvmetric.__all__)) == []


# pytest.mark.skip / skipif / xfail, pytest.skip(), pytest.xfail() and
# pytest.importorskip() all reach pytest through one of these names
SKIPPING = {"skip", "skipif", "xfail", "importorskip"}


def _skips(tree):
    """Lines that name one of pytest's ways to skip a test or expect it to fail."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in SKIPPING:
            found.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id in SKIPPING:
            found.add(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(alias.name in SKIPPING for alias in node.names):
            found.add(node.lineno)
    return sorted(found)


def test_no_skipped_or_xfailed_tests():
    # a failing property lands together with its fix, never as a skip or xfail
    sample = (
        "@pytest.mark.skipif(True, reason='')\n"
        "def test_a():\n"
        "    pytest.xfail('')\n"
        "from pytest import importorskip\n"
    )
    assert _skips(ast.parse(sample)) == [1, 3, 4]
    tests = sorted(TESTS.glob("*.py"))
    skipped = {path.name: found for path in tests if (found := _skips(ast.parse(path.read_text())))}
    assert skipped == {}


PYPROJECT = TESTS.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_property_that_fails(x):
    assert x < 5


def test_the_next_test():
    pass
"""


def test_a_failing_property_is_reported_and_the_run_goes_on(tmp_path):
    # hypothesis imports libcst to report a failing example; under
    # filterwarnings = ["error"] that import's DeprecationWarning must not
    # turn the report into an INTERNALERROR that drops the tests after it
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-q", "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
