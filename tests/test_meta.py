"""Meta tests: documentation coverage and the paper's complexity lemmas.

These make two kinds of repository-level promises executable:
(1) every public module, class and function carries a docstring, and
(2) the maintenance cost bound of Lemma 3.2 holds on instrumented runs.
"""

import importlib
import inspect
import pkgutil
import random

import pytest

import repro
from repro.graph import LabeledGraph
from repro.nnt import NNTIndex
from repro.nnt.branches import enumerate_simple_paths

from .conftest import random_labeled_graph


def _walk_public_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        yield importlib.import_module(info.name)


ALL_MODULES = list(_walk_public_modules())


class TestDocumentation:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_documented(self, module):
        assert module.__doc__ and module.__doc__.strip(), module.__name__

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_public_members_documented(self, module):
        undocumented = []
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isclass(member) or inspect.isfunction(member):
                if getattr(member, "__module__", None) != module.__name__:
                    continue  # re-export; documented at its home
                if not (member.__doc__ and member.__doc__.strip()):
                    undocumented.append(f"{module.__name__}.{name}")
                if inspect.isclass(member):
                    for method_name, method in vars(member).items():
                        if method_name.startswith("_") or not inspect.isfunction(method):
                            continue
                        if method.__doc__ and method.__doc__.strip():
                            continue
                        # An implementation may inherit its contract's
                        # docstring from a documented base-class method.
                        inherited = any(
                            getattr(getattr(base, method_name, None), "__doc__", None)
                            for base in member.__mro__[1:]
                        )
                        if not inherited:
                            undocumented.append(
                                f"{module.__name__}.{name}.{method_name}"
                            )
        assert not undocumented, undocumented


class TestComplexityLemmas:
    def test_lemma_3_2_insertion_bound(self):
        """Inserting edge (a,b) touches O(appearances * r^(l-1)) tree
        nodes: the created node count is bounded by the number of
        pre-existing appearances of a and b times the per-appearance
        subtree bound sum_{k<l} r^k.  An appearance is an occurrence
        above depth l: a simple path of length < l ending at a or b."""
        rng = random.Random(1221)
        for _ in range(10):
            graph = random_labeled_graph(rng, 8, extra_edges=rng.randint(0, 5))
            index = NNTIndex(graph, depth_limit=3)
            vertices = list(graph.vertices())
            u, v = rng.sample(vertices, 2)
            if index.graph.has_edge(u, v):
                continue
            appearances = sum(
                path[-1] in (u, v)
                for root in vertices
                for path in enumerate_simple_paths(graph, root, index.depth_limit - 1)
            )
            before = index.stats["tree_nodes_added"]
            index.insert_edge(u, v, "-")
            created = index.stats["tree_nodes_added"] - before
            r = max(1, index.graph.max_degree())
            per_appearance = sum(r**k for k in range(index.depth_limit))
            assert created <= appearances * per_appearance

    def test_deletion_removes_exactly_the_insertion(self):
        """Delete immediately after insert restores the exact node count
        (the subtree hung under every appearance is removed whole)."""
        rng = random.Random(909)
        graph = random_labeled_graph(rng, 7, extra_edges=3)
        index = NNTIndex(graph, depth_limit=3)
        baseline = index.num_tree_nodes
        vertices = list(graph.vertices())
        for _ in range(5):
            u, v = rng.sample(vertices, 2)
            if index.graph.has_edge(u, v):
                continue
            index.insert_edge(u, v, "-")
            index.delete_edge(u, v)
            assert index.num_tree_nodes == baseline

    def test_nnt_size_bound(self):
        """|NNT(u)| <= sum_{k<=l} r^k (Definition 3.1's worst case)."""
        rng = random.Random(707)
        graph = random_labeled_graph(rng, 9, extra_edges=6)
        r = graph.max_degree()
        for depth in (1, 2, 3):
            bound = sum(r**k for k in range(depth + 1))
            for vertex in graph.vertices():
                assert len(enumerate_simple_paths(graph, vertex, depth)) <= bound


class TestDoctests:
    """Run every module's doctests (examples in docstrings must work)."""

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_doctests_pass(self, module):
        import doctest

        result = doctest.testmod(module)
        assert result.failed == 0, f"{module.__name__}: {result.failed} doctest failures"
