"""Package-level hygiene: imports, exports, versioning."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter (nothing imported yet) and
    return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def _all_modules():
    out = []
    for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        out.append(mod.name)
    return out


class TestImports:
    def test_every_module_imports(self):
        """Catch syntax/import errors in rarely-exercised modules."""
        mods = _all_modules()
        assert len(mods) > 30
        for name in mods:
            importlib.import_module(name)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_example_imports(self, path):
        """Every example's imports resolve (``__main__`` is not run), so
        a name deleted from the package cannot linger in an example."""
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "subpackage",
        [
            "gdelt", "synth", "ingest", "storage", "engine", "parallel",
            "analysis", "serve", "shard", "views", "obs",
        ],
    )
    def test_all_exports_resolve(self, subpackage):
        """Every name in a subpackage's __all__ must actually exist."""
        mod = importlib.import_module(f"repro.{subpackage}")
        for name in mod.__all__:
            assert hasattr(mod, name), f"repro.{subpackage}.{name}"

    def test_cli_entry_point_callable(self):
        from repro.cli import main

        assert callable(main)

    def test_server_modules_leave_heavy_imports_out(self):
        """A server process loads neither SciPy, the HTTP/TLS stack of
        the ops plane, OpenSSL's hashes (``hashlib``, or
        ``multiprocessing.shared_memory`` via ``secrets``),
        ``multiprocessing``, nor the analysis and generator packages."""
        out = _fresh_python(
            "import sys\n"
            "import repro, repro.cli, repro.engine, repro.serve, repro.shard\n"
            "import repro.views, repro.ingest\n"
            "heavy = ('scipy', 'ssl', 'http.server', 'repro.analysis',"
            " 'repro.synth', 'hashlib', '_hashlib',"
            " 'multiprocessing', 'multiprocessing.shared_memory')\n"
            "print(' '.join(m for m in heavy if m in sys.modules))\n"
        )
        assert out.split() == []

    def test_direct_ingest_leaves_converter_and_engine_out(self):
        """``repro.ingest`` resolves its names lazily, so the synthetic
        writer's import loads neither the engine, the live follower nor
        the raw-archive converter."""
        out = _fresh_python(
            "import sys\n"
            "import repro.ingest.direct\n"
            "heavy = ('repro.engine', 'repro.ingest.stream', 'repro.ingest.convert')\n"
            "print(' '.join(m for m in heavy if m in sys.modules))\n"
        )
        assert out.split() == []

    def test_lazy_ingest_names_resolve(self):
        import repro.ingest
        from repro.ingest.stream import LiveFollower

        assert repro.ingest.LiveFollower is LiveFollower
        with pytest.raises(AttributeError):
            repro.ingest.no_such_name  # noqa: B018

    def test_lazy_subpackages_resolve(self):
        out = _fresh_python(
            "import repro\n"
            "print(callable(repro.analysis.dataset_statistics),"
            " callable(repro.synth.tiny_config))\n"
        )
        assert out.split() == ["True", "True"]

    def test_star_import_and_unknown_attribute(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        with pytest.raises(AttributeError):
            repro.no_such_subpackage  # noqa: B018


class TestDependencies:
    """NumPy is the one runtime dependency.  CI installs ``.[dev]``, whose
    tools pull in more, so an import that slips in would pass there."""

    def test_pyproject_runtime_dependencies_are_numpy_only(self):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(
            encoding="utf-8"
        )
        listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
        names = [
            re.match(r"[A-Za-z0-9_.-]+", dep).group(0)
            for dep in re.findall(r"[\"']([^\"']+)[\"']", listed.group(1))
        ]
        assert names == ["numpy"]

    def test_no_module_imports_scipy(self):
        src = Path(repro.__file__).resolve().parent
        offenders = []
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                if any(n == "scipy" or n.startswith("scipy.") for n in names):
                    offenders.append(f"{path.relative_to(src)}:{node.lineno}")
        assert not offenders, f"repro must not import scipy: {offenders}"

    def test_mining_suite_runs_without_scipy(self):
        """Every ``mine_suite`` analysis and the sparse co-reporting
        fallback, in an interpreter where ``import scipy`` fails."""
        out = _fresh_python(
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from repro import analysis, engine, synth\n"
            "from repro.ingest.direct import dataset_to_arrays\n"
            "ds = synth.generate_dataset(synth.tiny_config())\n"
            "s = engine.GdeltStore.from_arrays(*dataset_to_arrays(ds))\n"
            "ex = engine.ThreadExecutor(2)\n"
            "top10 = analysis.top_publishers(s, 10, ex)\n"
            "top50 = analysis.top_publishers(s, 50, ex)\n"
            "analysis.dataset_statistics(s)\n"
            "analysis.follow_reporting(s, top10)\n"
            "engine.aggregated_country_query(s, ex).jaccard()\n"
            "analysis.per_source_delay_stats(s)\n"
            "analysis.quarterly_delay(s)\n"
            "dense = analysis.source_coreporting(s, top50)\n"
            "sparse = analysis.source_coreporting_sparse(s, top50)\n"
            "ex.close()\n"
            "print((dense == sparse).all(), sys.modules['scipy'] is None)\n"
        )
        assert out.split() == ["True", "True"]


class TestOneSpelling:
    def test_no_numpy_unique_in_package(self):
        """The sorted distinct values of an array have one spelling in
        the package, ``repro.kernels.distinct``: NumPy 2.x's ``unique``
        hashes integer keys and is ~40x slower on them."""
        src = Path(repro.__file__).resolve().parent
        offenders = [
            f"{path.relative_to(src)}:{n}"
            for path in sorted(src.rglob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if "np.unique(" in line or "numpy.unique(" in line
        ]
        assert not offenders, (
            f"use repro.kernels.distinct instead of np.unique: {offenders}"
        )

    def test_one_chunk_archive_codec(self):
        """A raw chunk archive is built and opened in one module,
        ``gdelt/csv_io.py`` (``write_chunk_zip`` / ``chunk_member``), so
        every archive carries the same member stamp and its master-list
        entry the bytes written; and a raw row is spelled by the layout
        tables alone, never rendered by ``str.format`` in ``repro.gdelt``."""
        src = Path(repro.__file__).resolve().parent
        codec = src / "gdelt" / "csv_io.py"
        lines = [
            (path, n, line)
            for path in sorted(src.rglob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        ]
        zips = [
            f"{path.relative_to(src)}:{n}" for path, n, line in lines
            if path != codec and "zipfile.ZipFile(" in line
        ]
        assert not zips, f"build or open chunk archives through repro.gdelt.csv_io: {zips}"
        formats = [
            f"{path.relative_to(src)}:{n}" for path, n, line in lines
            if path.is_relative_to(src / "gdelt") and re.search(r"\.format\b", line)
        ]
        assert not formats, f"render raw rows through the layout tables: {formats}"

    def test_lexsort_only_in_the_group_kernels(self):
        """A grouped median has one spelling, ``engine.aggregate.group_median``
        (a composite-key sort, ``np.lexsort`` only as its fallback): no
        other module under ``src/repro`` calls ``np.lexsort``."""
        src = Path(repro.__file__).resolve().parent
        kernels = src / "engine" / "aggregate.py"
        offenders = [
            f"{path.relative_to(src)}:{n}"
            for path in sorted(src.rglob("*.py"))
            if path != kernels
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if "np.lexsort(" in line or "numpy.lexsort(" in line
        ]
        assert not offenders, (
            f"sort (key, value) pairs through repro.engine.aggregate: {offenders}"
        )

    def test_one_runner_plans_fuses_and_caches(self):
        """Plan → result cache → fused scan lives in one function, the
        engine runner (``repro.engine.query.run_batch``): no other module
        plans a scan, fuses plans or reads or fills the result cache, so
        a served request, a ``store.query()`` terminal and a view refresh
        cannot drift apart."""
        src = Path(repro.__file__).resolve().parent
        runner = src / "engine" / "query.py"
        calls = re.compile(
            r"(?<!def )\b(plan_query|fuse_plans)\(|result_cache\(\)\.(get|put)\("
            r"|=\s*result_cache\(\)\s*$"
        )
        offenders = [
            f"{path.relative_to(src)}:{n}"
            for path in sorted(src.rglob("*.py"))
            if path != runner
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if calls.search(line)
        ]
        assert not offenders, (
            f"only the engine runner may plan, fuse or cache: {offenders}"
        )
        # A view's answer is a pin of that one cache: only the catalog
        # pins or discards, and nothing serves beside the runner's probe.
        catalog = src / "views" / "catalog.py"
        pins = re.compile(r"result_cache\(\)\.(pin|discard)\(")
        offenders = [
            f"{path.relative_to(src)}:{n}"
            for path in sorted(src.rglob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if (path != catalog and pins.search(line))
            or (path.parent.name == "serve" and "serve_lookup(" in line)
        ]
        assert not offenders, f"only the view catalog pins: {offenders}"

    def test_serving_opens_datasets_one_way(self):
        """A serving process maps its dataset the way ``GdeltStore.open``
        does by default: nothing under ``repro.serve`` or the CLI picks
        a storage mode, so a server holds only the pages its queries
        touch and a reload opens a dataset like the first open."""
        src = Path(repro.__file__).resolve().parent
        opens = re.compile(r"GdeltStore\.open\([^)]*\bmode\s*=")
        offenders = [
            f"{path.relative_to(src)}:{n}"
            for path in [*sorted((src / "serve").rglob("*.py")), src / "cli.py"]
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if opens.search(line)
        ]
        assert not offenders, f"serving code picks a storage mode: {offenders}"

    def test_one_raw_row_parser(self):
        """A raw line is split into cells in one place, the column parser
        of ``repro.gdelt.csv_io``: no ingest module splits lines itself."""
        src = Path(repro.__file__).resolve().parent
        split = re.compile(r"""\.split\(\s*["']\\t["']""")
        offenders = [
            f"{path.relative_to(src)}:{n}"
            for path in sorted((src / "ingest").rglob("*.py"))
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if split.search(line)
        ]
        assert not offenders, f"parse raw rows with csv_io's column parser: {offenders}"

    def test_one_event_mention_join(self):
        """A mention finds its event in one place,
        ``GdeltStore.mention_event_row``: no other module reads the
        mentions' ``GlobalEventID`` column.  The row-at-a-time baseline
        engine is exempt; it is the generic system the paper compares
        against and joins by hashing on purpose."""
        src = Path(repro.__file__).resolve().parent
        exempt = {src / "engine" / "store.py", src / "engine" / "baseline.py"}
        read = re.compile(r"""mentions\[\s*["']GlobalEventID["']\s*\]""")
        offenders = [
            f"{path.relative_to(src)}:{n}"
            for path in sorted(src.rglob("*.py"))
            if path not in exempt
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if read.search(line)
        ]
        assert not offenders, (
            f"join mentions to events through mention_event_row(): {offenders}"
        )

    def test_one_query_builder(self):
        """The fluent builder is written once, ``repro.engine.query``:
        no other module defines ``group_by`` or ``time_range``, so a
        local and a remote store cannot drift apart."""
        src = Path(repro.__file__).resolve().parent
        builder = src / "engine" / "query.py"
        defines = re.compile(r"\bdef (group_by|time_range)\(")
        offenders = [
            f"{path.relative_to(src)}:{n}"
            for path in sorted(src.rglob("*.py"))
            if path != builder
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if defines.search(line)
        ]
        assert not offenders, f"only engine/query.py builds queries: {offenders}"

    def test_one_window_resolution(self):
        """A capture window becomes rows in one place: outside the store
        itself, ``interval_rows`` is called exactly once (by
        ``repro.engine.query.window_rows``)."""
        src = Path(repro.__file__).resolve().parent
        calls = re.compile(r"(?<!def )\binterval_rows\(")
        sites = [
            f"{path.relative_to(src)}:{n}"
            for path in sorted(src.rglob("*.py"))
            if path != src / "engine" / "store.py"
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if calls.search(line)
        ]
        assert len(sites) == 1 and sites[0].startswith("engine/query.py"), sites

    def test_one_gather_path(self):
        """The shard router asks backends in one place: every table is
        replica groups of the one scatter-gather, so a shard's breaker
        is consulted at a single call site and no second, single-replica
        path exists to drift from it."""
        router = Path(repro.__file__).resolve().parent / "shard" / "router.py"
        text = router.read_text(encoding="utf-8")
        assert text.count("breakers.allow(") == 1
        assert "_route_single" not in text

    def test_engine_imports_no_upper_layer(self):
        """The engine sits below serving, sharding, views and QA."""
        src = Path(repro.__file__).resolve().parent
        upper = re.compile(
            r"^\s*(from|import)\s+repro\.(serve|shard|views|qa)\b", re.M
        )
        offenders = [
            str(path.relative_to(src))
            for path in sorted((src / "engine").rglob("*.py"))
            if upper.search(path.read_text(encoding="utf-8"))
        ]
        assert not offenders, f"engine modules import an upper layer: {offenders}"
