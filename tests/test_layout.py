"""The package holds only what a program calls: the CLI, smoothgan.verify and
the benchmark's workloads, not the tests; and one solver per concept."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# KernelSpec.grad_x has no caller in the program's code: the benchmark's tracer
# wraps it by the string "KernelSpec.grad_x", and the tests use it as the
# reference kernel gradient
NAMED_ONLY_AS_STRINGS = {"grad_x"}


def _program_files() -> list[Path]:
    """The package's modules and the benchmark's non-test files."""
    return sorted((ROOT / "src" / "smoothgan").glob("*.py")) + sorted(
        p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))


def test_every_public_name_has_a_program_caller():
    assert (ROOT / "src" / "smoothgan" / "cli.py").exists()
    trees = {path: ast.parse(path.read_text()) for path in _program_files()}
    uses = defaultdict(list)              # name -> (file, line) of each load of it
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                uses[node.attr].append((path, node.lineno))
    uncalled = set()
    for path, tree in trees.items():
        if path.parent.name != "smoothgan":
            continue
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not any(p != path or not node.lineno <= line <= node.end_lineno
                                for p, line in uses[node.name])):
                uncalled.add(node.name)
    assert sorted(uncalled - NAMED_ONLY_AS_STRINGS) == []


def test_one_transport_solver():
    # the package's transport LP is the network simplex in divergences.w1_lp;
    # scipy's linprog (HiGHS) serves only the tests, as the oracle
    users = [p.name for p in sorted((ROOT / "src" / "smoothgan").glob("*.py"))
             if "linprog" in p.read_text()]
    assert users == []


def test_one_convex_search():
    # every 1-D inf-convolution with a convex operand goes through the monotone search
    # in envelopes.inf_conv; the lower convex hull serves only the Legendre transform
    callers = [f"{path.name}:{fn.name}"
               for path in sorted((ROOT / "src" / "smoothgan").glob("*.py"))
               for fn in ast.walk(ast.parse(path.read_text()))
               if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_lower_hull"]
    assert callers == ["envelopes.py:_conjugate_1d"]


def test_one_size_guard():
    # every size refusal goes through errors.refuse_over: no other module
    # constructs ProblemTooLarge
    sites = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "smoothgan").glob("*.py"))
             if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ProblemTooLarge"]
    assert sites == []


def test_one_grid_rule():
    # whether a value lies a whole number of steps away is decided by envelopes._whole_steps
    # alone: nothing else there rounds, and the old same-grid test and kernel are gone
    def rounds(tree):
        return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", getattr(node.func, "attr", None))
                in ("round", "rint", "around")]

    tree = ast.parse((ROOT / "src" / "smoothgan" / "envelopes.py").read_text())
    defs = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert rounds(tree) == rounds(defs["_whole_steps"]) != []
    assert not defs.keys() & {"same_grid", "_infconv_kernel"}


def test_one_argument_guard():
    # every count and positive real is checked by errors.need_count or errors.need_positive:
    # no other module imports numbers or writes the chained test 0 < x < math.inf
    def is_chained_positive(node):
        return (isinstance(node, ast.Compare) and [type(op) for op in node.ops] == [ast.Lt] * 2
                and isinstance(node.left, ast.Constant) and node.left.value == 0
                and ast.unparse(node.comparators[-1]) == "math.inf")

    sites = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "smoothgan").glob("*.py"))
             if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.module == "numbers")
             or is_chained_positive(node)]
    assert sites == []


def test_one_measure_type():
    # weighted atoms, probability or signed, are one type: no other class declares
    # both points and weights
    owners = [f"{path.name}:{node.name}"
              for path in sorted((ROOT / "src" / "smoothgan").glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ClassDef)
              and {"points", "weights"} <= {stmt.target.id for stmt in node.body
                                            if isinstance(stmt, ast.AnnAssign)
                                            and isinstance(stmt.target, ast.Name)}]
    assert owners == ["measures.py:DiscreteMeasure"]


def _callers(name: str) -> list[str]:
    """file:function (file:<module> outside any) of each call of name in the package, called
    by bare name or as an attribute; a call inside a nested function names the inner one."""
    sites = []

    def visit(node, path, fn):
        if isinstance(node, ast.Call) and getattr(node.func, "id",
                                                   getattr(node.func, "attr", None)) == name:
            sites.append(f"{path.name}:{fn}")
        for child in ast.iter_child_nodes(node):
            visit(child, path, child.name if isinstance(child, ast.FunctionDef) else fn)

    for path in sorted((ROOT / "src" / "smoothgan").glob("*.py")):
        visit(ast.parse(path.read_text()), path, "<module>")
    return sites


def test_one_gradient_rule_per_loss():
    # a loss's witness gradient is LOSSES[name].grad alone: the kernel-gradient sum and the
    # W1 slope rule each have one caller, the rules, and OracleFamily.grad compares no kind
    assert _callers("grad_x_sum") == ["discriminators.py:witness_grad_mmd"]
    assert _callers("w1_slope_at") == ["discriminators.py:witness_grad_w1"]
    tree = ast.parse((ROOT / "src" / "smoothgan" / "smoothness.py").read_text())
    family = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.ClassDef) and node.name == "OracleFamily")
    grad = next(node for node in family.body
                if isinstance(node, ast.FunctionDef) and node.name == "grad")
    compared = [ast.unparse(node) for node in ast.walk(grad)
                if isinstance(node, (ast.Compare, ast.Match))
                and any(isinstance(sub, ast.Attribute) and sub.attr == "kind"
                        for sub in ast.walk(node))]
    assert compared == []


def test_one_merge_kernel():
    # in measures.py only _merge_atoms sorts atoms, and pack_measures merges its rows through
    # it, not through the one-measure constructors
    assert {site for site in _callers("lexsort")
            if site.startswith("measures.py:")} == {"measures.py:_merge_atoms"}
    assert "measures.py:pack_measures" not in _callers("make_discrete") + _callers("make_signed")
    assert "measures.py:pack_measures" in _callers("_merge_atoms")


def test_one_measure_builder():
    # pack_measures alone refuses and normalizes a measure: make_discrete and make_signed are
    # its one-row calls, with no refusal, error state, merge or division of their own
    assert {site for name in ("EmptySupport", "NegativeWeight") for site in _callers(name)
            if site.startswith("measures.py:")} == {"measures.py:pack_measures"}
    tree = ast.parse((ROOT / "src" / "smoothgan" / "measures.py").read_text())
    fns = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    for name in ("make_discrete", "make_signed"):
        assert f"measures.py:{name}" in _callers("pack_measures")
        assert f"measures.py:{name}" not in _callers("_merge_atoms")
        assert not [node for node in ast.walk(fns[name])
                    if isinstance(node, (ast.Raise, ast.With, ast.Div))]


def test_one_cdf_sweep():
    # the 1-D CDF is measures._cdf_sweep alone: the other cumsums in these modules run over
    # merge labels, row counts and the potential's slopes, not over signed weights; and one
    # gap lookup, one searchsorted per row, serves the potential and its slope
    w1_modules = ("measures.py", "discriminators.py", "divergences.py")
    text = {path.name: path.read_text()
            for path in sorted((ROOT / "src" / "smoothgan").glob("*.py"))}
    assert not any("_cdf_levels" in t or "query-break comparisons" in t for t in text.values())
    assert {site for site in _callers("cumsum") if site.split(":")[0] in w1_modules} == {
        "measures.py:_merge_atoms", "measures.py:pack_measures", "measures.py:_cdf_sweep",
        "discriminators.py:phi_w1_1d"}
    assert [site for site in _callers("searchsorted")
            if site.split(":")[0] in w1_modules] == ["discriminators.py:_gap_at"]
    assert sorted(_callers("_gap_at")) == ["discriminators.py:phi_w1_1d",
                                           "discriminators.py:w1_slope_at"]
    assert sorted(_callers("_cdf_sweep")) == ["discriminators.py:_w1_sweep"] * 2 + [
        "divergences.py:kr_norm_1d"]


def test_one_stop_rule():
    # trainer._descend alone ends a run: no other function of trainer.py compares against
    # the divergence or escape threshold, and none other enters np.errstate
    thresholds = {"DIVERGENCE_THRESHOLD", "ESCAPE_THRESHOLD"}
    tree = ast.parse((ROOT / "src" / "smoothgan" / "trainer.py").read_text())
    deciders = {getattr(top, "name", "<module>") for top in tree.body for node in ast.walk(top)
                if isinstance(node, ast.Compare)
                and thresholds & {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}}
    assert deciders == {"_descend"}
    assert [site for site in _callers("errstate")
            if site.startswith("trainer.py:")] == ["trainer.py:_descend"]


def test_one_seeded_worst_case_rule():
    # in verify.py each seeded trial stream is drawn by _worst, which takes the worst of the
    # nine records' errors, or by check_envelopes' count of broken minimizer instances
    assert [site for site in _callers("child_rng") if site.startswith("verify.py:")] == [
        "verify.py:_worst", "verify.py:count_broken"]
    assert sorted(_callers("_worst")) == [
        "verify.py:check_bregman_identity", "verify.py:check_cross_hessian",
        "verify.py:check_gradient_oracles", "verify.py:check_w1_lp_assignment",
        "verify.py:check_w1_oracle_equivalence"]
