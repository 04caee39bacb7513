"""Tests for the project semantic index (DESIGN.md S25).

The index is the substrate the R7-R9 graph rules stand on, so its
contracts get direct coverage: symbol tables (including nested defs),
import-alias resolution (plain, ``as``, from-imports, relative),
call resolution (module functions, ``self.`` methods through the
class hierarchy, class instantiations landing on ``__init__``),
reverse edges, hop-bounded reachability, and the build-time stat the
CI wall-time guard reads.
"""

import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis.core import analyze_paths, parse_module, parse_source
from repro.analysis.graph import build_index


def _info(module, source):
    return parse_source(textwrap.dedent(source), module=module)


def _index(*pairs):
    return build_index([_info(m, s) for m, s in pairs])


class TestSymbols:
    def test_functions_classes_methods(self):
        idx = _index(("pkg.mod", """
            def helper():
                pass

            class Thing:
                def method(self):
                    pass
        """))
        assert "pkg.mod.helper" in idx.functions
        assert "pkg.mod.Thing" in idx.classes
        assert "pkg.mod.Thing.method" in idx.functions
        cls = idx.classes["pkg.mod.Thing"]
        assert cls.methods["method"] == "pkg.mod.Thing.method"

    def test_nested_defs_indexed(self):
        idx = _index(("pkg.mod", """
            def outer():
                def inner():
                    pass
                return inner
        """))
        assert "pkg.mod.outer.inner" in idx.functions

    def test_defs_under_conditionals_indexed(self):
        idx = _index(("pkg.mod", """
            import sys

            if sys.version_info >= (3, 9):
                def compat():
                    pass
            else:
                def compat():
                    pass
        """))
        assert "pkg.mod.compat" in idx.functions

    def test_module_listings(self):
        idx = _index(
            ("pkg.a", "def f():\n    pass\n"),
            ("pkg.b", "class C:\n    pass\n"),
        )
        assert [f.qualname for f in idx.functions_in("pkg.a")] == [
            "pkg.a.f"
        ]
        assert [c.qualname for c in idx.classes_in("pkg.b")] == [
            "pkg.b.C"
        ]


class TestCallResolution:
    def test_from_import_call(self):
        idx = _index(
            ("pkg.util", "def helper():\n    pass\n"),
            ("pkg.main", """
                from pkg.util import helper

                def go():
                    helper()
            """),
        )
        assert "pkg.util.helper" in idx.callees("pkg.main.go")
        assert idx.callers("pkg.util.helper") == {"pkg.main.go"}

    def test_lazy_package_reexport_call(self):
        package = parse_source(textwrap.dedent("""
            from repro._lazy import lazy_exports

            __all__ = lazy_exports(globals(), {
                "pkg.util": ["helper"],
            })
        """), module="pkg", path="pkg/__init__.py")
        idx = build_index([
            _info("pkg.util", "def helper():\n    pass\n"),
            package,
            _info("pkg.main", """
                from pkg import helper

                def go():
                    helper()
            """),
        ])
        assert "pkg.util.helper" in idx.callees("pkg.main.go")

    def test_module_alias_call(self):
        idx = _index(
            ("pkg.util", "def helper():\n    pass\n"),
            ("pkg.main", """
                import pkg.util as u

                def go():
                    u.helper()
            """),
        )
        assert "pkg.util.helper" in idx.callees("pkg.main.go")

    def test_self_method_call(self):
        idx = _index(("pkg.mod", """
            class Thing:
                def outer(self):
                    self.inner()

                def inner(self):
                    pass
        """))
        assert "pkg.mod.Thing.inner" in idx.callees("pkg.mod.Thing.outer")

    def test_self_method_through_base_class(self):
        idx = _index(("pkg.mod", """
            class Base:
                def shared(self):
                    pass

            class Child(Base):
                def go(self):
                    self.shared()
        """))
        assert "pkg.mod.Base.shared" in idx.callees("pkg.mod.Child.go")

    def test_instantiation_lands_on_init(self):
        idx = _index(("pkg.mod", """
            class Thing:
                def __init__(self):
                    pass

            def make():
                return Thing()
        """))
        assert "pkg.mod.Thing.__init__" in idx.callees("pkg.mod.make")
        site = next(
            c for c in idx.functions["pkg.mod.make"].calls
            if c.target == "pkg.mod.Thing"
        )
        assert site.kind == "class"

    def test_nested_def_bare_name(self):
        idx = _index(("pkg.mod", """
            def outer():
                def inner():
                    pass
                inner()
        """))
        assert "pkg.mod.outer.inner" in idx.callees("pkg.mod.outer")

    def test_receiver_variable_unresolved(self):
        # cache.put(...) on a parameter cannot be resolved — the call
        # site records the chain but no target (documented limit).
        idx = _index(("pkg.mod", """
            def use(cache):
                cache.put(1)
        """))
        assert idx.callees("pkg.mod.use") == set()


class TestHierarchyAndReachability:
    def test_base_chain_reaches_external_name(self):
        idx = _index(("pkg.mod", """
            from http.server import ThreadingHTTPServer

            class MyServer(ThreadingHTTPServer):
                pass
        """))
        chain = list(idx.base_chain("pkg.mod.MyServer"))
        assert chain[0] == "pkg.mod.MyServer"
        assert any(b.endswith("ThreadingHTTPServer") for b in chain[1:])

    def test_reachable_hop_bound(self):
        idx = _index(("pkg.mod", """
            def a():
                b()

            def b():
                c()

            def c():
                d()

            def d():
                pass
        """))
        hops = idx.reachable("pkg.mod.a", max_hops=2)
        assert hops["pkg.mod.b"] == 1
        assert hops["pkg.mod.c"] == 2
        assert "pkg.mod.d" not in hops

    def test_reverse_reachability(self):
        idx = _index(("pkg.mod", """
            def a():
                b()

            def b():
                pass
        """))
        up = idx.reachable("pkg.mod.b", max_hops=3, reverse=True)
        assert up["pkg.mod.a"] == 1


class TestBuildStats:
    def test_build_seconds_recorded(self):
        idx = _index(("pkg.mod", "def f():\n    pass\n"))
        assert idx.build_seconds >= 0.0

    def test_analyze_paths_fills_stats(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("def f():\n    pass\n")
        stats = {}
        analyze_paths([pkg], root=tmp_path, stats=stats)
        assert stats["graph_modules"] == 2
        assert stats["graph_build_seconds"] >= 0.0

    def test_no_graph_skips_build(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text("def f():\n    pass\n")
        stats = {}
        analyze_paths([pkg], root=tmp_path, graph=False, stats=stats)
        assert "graph_build_seconds" not in stats


class TestParseCache:
    def test_reparse_only_on_change(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("def f():\n    pass\n")
        first = parse_module(target, root=tmp_path)
        again = parse_module(target, root=tmp_path)
        assert again is first
        # A content change (with a distinct mtime) must re-parse.
        time.sleep(0.01)
        target.write_text("def g():\n    pass\n")
        changed = parse_module(target, root=tmp_path)
        assert changed is not first
        assert "g" in changed.source

    def test_fixture_trees_get_dotted_names(self, tmp_path):
        nested = tmp_path / "pkg" / "sub"
        nested.mkdir(parents=True)
        (tmp_path / "pkg" / "__init__.py").write_text("")
        (nested / "__init__.py").write_text("")
        (nested / "mod.py").write_text("X = 1\n")
        info = parse_module(nested / "mod.py", root=tmp_path)
        assert info.module == "pkg.sub.mod"


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v"]))
