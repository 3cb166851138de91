import ast
import contextlib
import glob
import hashlib
import json
import os
import sys
from io import StringIO

import pytest

from quasihopf import hopf, io, tensor
from quasihopf.cli import _report_json, main
from quasihopf.coring import build_coring, verify_coring
from quasihopf.errors import HashMismatch, ParseError, QuasiHopfError
from quasihopf.fields import QQ, PrimeField, field_from_tag
from quasihopf.fixtures import (FIXTURE_NAMES, c2, h2, h2_bimodule_coalgebra,
                                hh_bicomodule, kz2, regular_comodule_algebra)
from quasihopf.hopf import GaugeTransformation, verify_quasi_hopf
from quasihopf.modcoalg import (ModuleCoalgebra, dualize, verify_module_algebra,
                                verify_module_coalgebra)
from quasihopf.tensor import LinMap, Tensor, all_indices, multiply, unit_tensor

from test_hopf import seeded_gauge, sweedler
from test_preconditions import inputs


def run(argv):
    return main(argv)


def package_trees():
    """(module name, syntax tree) of every module of the package."""
    package = os.path.dirname(tensor.__file__)
    paths = sorted(glob.glob(os.path.join(package, "*.py")))
    assert len(paths) > 10
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            yield os.path.basename(path)[:-3], ast.parse(fh.read(), path)


def scoped_nodes(tree, scope):
    """(qualified name of the innermost enclosing function or class,
    node) of every node of ``tree``, methods named Class.method."""
    for child in ast.iter_child_nodes(tree):
        yield scope, child
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = scope + "." + child.name
        yield from scoped_nodes(child, inner)


def test_package_has_no_assert_statement():
    # ``python -O`` strips asserts, so a guard must raise a package error,
    # which the command line reports with its exit code
    found = ["%s:%d" % (module, node.lineno) for module, tree in package_trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_only_the_internal_coalgebra_check_solves_for_an_inverse():
    # every structure states its inverses, so no constructor solves for
    # one; the comult-of-unit-invertible check is the one dense solve left
    callers = [scope for module, tree in package_trees()
               for scope, node in scoped_nodes(tree, module)
               if isinstance(node, ast.Call)
               and getattr(node.func, "id", getattr(node.func, "attr", None))
               == "invert_element"]
    assert callers == ["comodule.InternalCoalgebra.verify"]


# parameters that take no default: each had one that no caller overrode,
# or an inverse that every caller states, or a base the code builds itself
NO_DEFAULT = {
    "hopf.QuasiBialgebra.__init__": ("reassoc_inv",),
    "hopf.QuasiHopfAlgebra.__init__": ("reassoc_inv",),
    "hopf.GaugeTransformation.__init__": ("inv",),
    "hopf.verify_fin_algebra": ("subject", "report"),
    "hopf.op_tensor": ("name",),
    "hopf.tensor_op": ("name",),
    "comodule.ComoduleAlgebra.__init__": ("reassoc_inv",),
    "comodule.TwistWitness.__init__": ("inv",),
    "comodule.BicomoduleAlgebra.__init__": ("reassoc_left_inv", "reassoc_right_inv",
                                           "reassoc_mixed_inv"),
    "comodule.right_realization": ("base",),
    "comodule.bicomodule_to_right_op_tensor": ("base",),
    "comodule.bicomodule_to_left_tensor_op": ("base",),
    "yd.YetterDrinfeldContext.__init__": ("square",),
    "doihopf.to_smash_module": ("smash",),
    "doihopf.verify_module_law": ("report", "subject"),
    "doihopf.CoringComodule.act": ("leg",),
    "fixtures._grouplike_comult": ("dim",),
    "fixtures._all_ones_counit": ("dim",),
    "modcoalg.dualize": ("name",),
    "tensor.LinMap.from_matrix": ("dst_spaces",),
    "comodule.CanonicalElements.__init__": ("p", "q", "q_right", "report"),
    "coring.Coring.act_left": ("leg",),
}


def test_removed_defaults_stay_removed():
    defaulted = {}
    for module, tree in package_trees():
        for scope, node in scoped_nodes(tree, module):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted[scope + "." + node.name] = (
                    {a.arg for a in positional[len(positional) - len(args.defaults):]}
                    | {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None})
    assert sum(len(names) for names in NO_DEFAULT.values()) == 29
    assert {fn: sorted(defaulted[fn] & set(names)) for fn, names in NO_DEFAULT.items()} \
        == {fn: [] for fn in NO_DEFAULT}


# parameters a private helper never read, or could read off another
# argument: the action's target dimension, the unit's legs, the square
# cached on the base, the base of the values it writes
REMOVED_PARAMETERS = {
    "doihopf._module_hom_basis": ("alg",),
    "comodule._check_algebra_map": ("dst_spaces",),
    "modcoalg._module_law_sides": ("dim",),
    "modcoalg._check_module_law": ("dim",),
    "modcoalg._check_actions_commute": ("dim",),
    "doihopf._smash_action": ("dB",),
    "smash._product_from_pairs": ("field", "d1", "d2"),
    "smash._diagonal_product": ("A",),
    "comodule._swap_square_factors": ("base",),
    "cli._two_sided_inverse": ("spaces",),
    "cli._emit_over_base": ("base",),
    "tensor.El.map": ("at", "out_spaces"),
}


def test_removed_parameters_stay_removed():
    params = {}
    for module, tree in package_trees():
        for scope, node in scoped_nodes(tree, module):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                params[scope + "." + node.name] = {
                    a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    assert sum(len(names) for names in REMOVED_PARAMETERS.values()) == 15
    assert {fn: sorted(params[fn] & set(names)) for fn, names in REMOVED_PARAMETERS.items()} \
        == {fn: [] for fn in REMOVED_PARAMETERS}


def test_every_el_leg_is_named():
    # every El pipeline is written over leg names: El keeps no positional
    # method, and no call outside tensor.py names a leg by its position
    trees = dict(package_trees())
    el = next(node for node in ast.walk(trees["tensor"])
              if isinstance(node, ast.ClassDef) and node.name == "El")
    methods = {node.name: node.args for node in el.body if isinstance(node, ast.FunctionDef)}
    assert {"perm", "mul_embedded", "premul_embedded"} & set(methods) == set()
    assert {"at", "out_spaces"} & {a.arg for a in methods["map"].args
                                   + methods["map"].kwonlyargs} == set()

    def position(arg):
        return isinstance(arg, ast.Constant) and isinstance(arg.value, int) or (
            isinstance(arg, ast.Tuple) and arg.elts != [] and all(map(position, arg.elts)))

    positional = ["%s:%d" % (module, node.lineno) for module, tree in trees.items()
                  if module != "tensor" for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and getattr(node.func, "attr", None) in ("map", "merge", "tensor")
                  and any(map(position, node.args[node.func.attr == "map":]))]
    assert positional == []


def test_per_item_sweeps_are_the_pinned_checks():
    # per-item CheckReport.sweep stays for the act_legwise pipelines and
    # the coring normal forms; every other check is one contraction
    calls = sorted((scope, node.args[0].value) for module, tree in package_trees()
                   for scope, node in scoped_nodes(tree, module)
                   if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "sweep")
    assert calls == [
        ("coring.verify_coring", "coassociative"),
        ("coring.verify_coring", "comult-bilinear"),
        ("doihopf.verify_coring_comodule", "coaction-linear"),
        ("doihopf.verify_coring_comodule", "coassociative"),
        ("doihopf.verify_doi_hopf", "action-coaction-compat"),
        ("doihopf.verify_doi_hopf", "coassoc-upto-reassoc"),
        ("modcoalg.verify_module_algebra", "assoc-upto-reassoc"),
        ("modcoalg.verify_module_coalgebra", "coassoc-upto-reassoc"),
        ("yd.verify_yd", "crossed-compat"),
        ("yd.verify_yd", "mixed-coassoc"),
    ]


def test_only_the_report_shapes_a_record():
    # a record is made whole by CheckReport; no caller patches its
    # witness or sides afterwards, or scans for a witness of its own
    patched = ["%s:%d" % (scope, node.lineno) for module, tree in package_trees()
               if module != "report"
               for scope, node in scoped_nodes(tree, module)
               if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
               for part in ast.walk(target)
               if isinstance(part, ast.Attribute) and part.attr in ("witness", "lhs", "rhs")]
    assert patched == []
    scanned = [scope for module, tree in package_trees()
               for scope, node in scoped_nodes(tree, module)
               if isinstance(node, ast.Call)
               and getattr(node.func, "attr", None) == "first_difference"]
    assert "hopf._counit_comult_record" not in scanned


def raising_scopes(name):
    """The scopes of every ``raise name(...)`` in the package."""
    return [scope for module, tree in package_trees()
            for scope, node in scoped_nodes(tree, module)
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
            and getattr(node.exc.func, "id", None) == name]


def test_each_input_precondition_is_stated_once():
    # a construction reads the antipode data it needs and pairs its inputs
    # through hopf.shared_base; neither rule is restated anywhere else
    assert raising_scopes("AntipodeRequired") == ["hopf.QuasiBialgebra.__getattr__"]
    assert raising_scopes("MixedBase") == ["hopf.shared_base"]
    tested = {scope for module, tree in package_trees()
              for scope, node in scoped_nodes(tree, module)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
              and any(getattr(n, "id", None) == "QuasiHopfAlgebra"
                      for n in ast.walk(node.args[1]))}
    assert {scope for scope in tested if not scope.startswith("cli.")} == {"hopf._variant"}


def test_package_has_no_function_local_import():
    local = ["%s:%d" % (scope, node.lineno) for module, tree in package_trees()
             for scope, node in scoped_nodes(tree, module)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and scope != module]
    assert local == []


def test_only_the_tensor_module_indexes_a_map():
    # every other module reads a map through LinMap's own operations
    # (equality, as_tensor, column), never through its entries
    readers = ["%s:%d" % (module, node.lineno) for module, tree in package_trees()
               if module != "tensor" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "cols"]
    assert readers == []


def test_each_coaction_order_and_reflection_is_stated_once():
    trees = dict(package_trees())
    smash_nodes = list(scoped_nodes(trees["smash"], "smash"))
    # one exchange pipeline: the "r" data are the cop mirror of the "l" data
    pipelines = [scope + "." + node.name for scope, node in smash_nodes
                 if scope in ("smash.build_omega", "smash._exchange_data")
                 and isinstance(node, ast.FunctionDef)]
    assert pipelines == ["smash._exchange_data.exchange"]
    # the diagonal product expands u by the data's composite coaction
    coactions = [node.attr for scope, node in smash_nodes
                 if scope.startswith("smash._diagonal_product")
                 and isinstance(node, ast.Attribute)
                 and node.attr in ("coaction", "left_coaction", "right_coaction")]
    assert coactions == []

    # every reassociator reflection reverses its legs in one helper; the
    # other reversal reads a coaction backwards
    def reverses(module_tree, arg):
        if isinstance(arg, ast.Name):
            return any(isinstance(node, ast.Assign) and len(node.targets) == 1
                       and getattr(node.targets[0], "id", None) == arg.id
                       and reverses(module_tree, node.value)
                       for node in ast.walk(module_tree))
        return isinstance(arg, ast.Tuple) and [getattr(e, "value", None)
                                               for e in arg.elts] == [2, 1, 0]

    sites = sorted(scope for module, tree in trees.items()
                   for scope, node in scoped_nodes(tree, module)
                   if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "switch_legs"
                   and len(node.args) == 2 and reverses(tree, node.args[1]))
    assert sites == ["doihopf.adjunction_maps", "hopf.reflect_pair", "hopf.reflect_pair"]


def test_multiply_has_one_path_for_both_fields():
    # both fields run one walk, one leaf combine and one unpack; only the
    # slot bounds and the reduction of a packed slot mod p depend on p
    def tests_field(test):
        return any(getattr(n, "id", None) == "p" or getattr(n, "attr", None) == "characteristic"
                   for n in ast.walk(test))

    branches = [node.lineno for module, tree in package_trees()
                for scope, node in scoped_nodes(tree, module)
                if scope == "tensor.multiply" and isinstance(node, (ast.If, ast.IfExp))
                and tests_field(node.test)]
    assert len(branches) == 2


def test_fixture_emit_and_check_all(tmp_path):
    for name in FIXTURE_NAMES:
        assert run(["fixture", "emit", name, "--dir", str(tmp_path)]) == 0
        path = tmp_path / (name + io.SUFFIX)
        assert path.exists()
        assert run(["check", str(path)]) == 0


def test_fixture_emit_prime_field(tmp_path):
    assert run(["fixture", "emit", "h2", "--dir", str(tmp_path),
                "--field", "fp:10007"]) == 0
    value = io.parse(str(tmp_path / ("h2" + io.SUFFIX)))
    assert value.field == PrimeField(10007)
    assert run(["check", str(tmp_path / ("h2" + io.SUFFIX))]) == 0


def test_emit_parse_roundtrip_byte_identical(tmp_path):
    path = str(tmp_path / ("h2" + io.SUFFIX))
    io.emit_value(h2(QQ), path)
    first = open(path, "rb").read()
    value = io.parse(path)
    io.emit_value(value, path)
    second = open(path, "rb").read()
    assert first == second


def test_parse_emit_value_roundtrip(tmp_path):
    path = str(tmp_path / ("kz2" + io.SUFFIX))
    io.emit_value(kz2(QQ), path)
    value = io.parse(path)
    H = kz2(QQ)
    assert value.reassoc == H.reassoc
    assert value.alpha == H.alpha and value.beta == H.beta
    for i in range(2):
        assert value.comult.column((i,)) == H.comult.column((i,))
        for j in range(2):
            assert value.alg.basis_product(i, j) == H.alg.basis_product(i, j)


def test_zero_denominator_rejected(tmp_path):
    path = str(tmp_path / ("h2" + io.SUFFIX))
    io.emit_value(h2(QQ), path)
    payload = json.load(open(path))
    payload["alpha"] = [[1, "1/0"]]
    open(path, "w").write(io.canonical_dumps(payload))
    with pytest.raises(ParseError):
        io.parse(path)


@pytest.mark.parametrize("row, message", [
    ([1, 1, 5, "1"], "row [1, 1, 5, '1'] has an index out of range for (2, 2, 2)"),
    ([1, 5, "1"], "row [1, 5, '1'] has wrong index count"),
    ([], "list index out of range"),
])
def test_malformed_linear_map_row_is_a_parse_error(tmp_path, capsys, row, message):
    assert run(["fixture", "emit", "c2", "--dir", str(tmp_path)]) == 0
    path = str(tmp_path / ("c2" + io.SUFFIX))
    payload = json.load(open(path))
    payload["right_action"].append(row)
    open(path, "w").write(io.canonical_dumps(payload))
    capsys.readouterr()
    assert run(["check", path]) == 2
    assert capsys.readouterr().err == "parse error: [module-coalgebra] %s\n" % message


@pytest.mark.parametrize("coefficient", ["1", "0"])
def test_out_of_range_tensor_row_is_a_parse_error(tmp_path, capsys, coefficient):
    path = str(tmp_path / ("h2" + io.SUFFIX))
    io.emit_value(h2(QQ), path)
    payload = json.load(open(path))
    payload["reassoc"].append([0, 0, 7, coefficient])
    open(path, "w").write(io.canonical_dumps(payload))
    capsys.readouterr()
    assert run(["check", path]) == 2
    assert capsys.readouterr().err == (
        "parse error: [quasi-hopf] row [0, 0, 7, '%s'] has an index out of range"
        " for (2, 2, 2)\n" % coefficient)


@pytest.mark.parametrize("edit, message", [
    (lambda p: p.pop("field"), "missing key 'field'"),
    (lambda p: p.pop("algebra"), "missing key 'algebra'"),
    (lambda p: p.pop("comult"), "missing key 'comult'"),
    (lambda p: p.update(field={"fp": 9}), "bad field {'fp': 9}: 9 is not prime"),
    (lambda p: p["algebra"].update(dim="two"), "bad dim 'two': "),
    (lambda p: p.update(alpha=5), "rows 5 are not a list"),
    (lambda p: p.pop("reassoc_inv"), "missing key 'reassoc_inv'"),
], ids=["no-field", "no-algebra", "no-comult", "fp9", "dim-two", "alpha-5",
        "no-reassoc-inv"])
def test_malformed_quasi_hopf_file_is_a_parse_error(tmp_path, capsys, edit, message):
    path = str(tmp_path / ("h2" + io.SUFFIX))
    io.emit_value(h2(QQ), path)
    payload = json.load(open(path))
    edit(payload)
    open(path, "w").write(io.canonical_dumps(payload))
    capsys.readouterr()
    assert run(["check", path]) == 2
    assert capsys.readouterr().err.startswith("parse error: [quasi-hopf] " + message)


def unit_gauge(H):
    unit = unit_tensor(H.spaces(2))
    return GaugeTransformation(H, unit, unit)


@pytest.mark.parametrize("build, kind, key", [
    (lambda H: hh_bicomodule(H.field, H), "bicomodule-algebra", "reassoc_mixed_inv"),
    (unit_gauge, "gauge", "gauge_inv"),
], ids=["no-reassoc-mixed-inv", "no-gauge-inv"])
def test_a_file_without_a_stated_inverse_is_a_parse_error(tmp_path, capsys, build,
                                                          kind, key):
    # a file states every inverse, so no constructor solves for one
    base = str(tmp_path / ("h2" + io.SUFFIX))
    path = str(tmp_path / (kind + io.SUFFIX))
    H = h2(QQ)
    io.emit_value(H, base)
    io.emit_value(build(H), path, base_path=base)
    payload = json.load(open(path))
    payload.pop(key)
    open(path, "w").write(io.canonical_dumps(payload))
    capsys.readouterr()
    assert run(["check", path]) == 2
    assert capsys.readouterr().err.startswith(
        "parse error: [%s] missing key %r" % (kind, key))


def test_loader_rejects_a_file_of_the_wrong_kind(tmp_path, capsys):
    d = str(tmp_path)
    assert run(["fixture", "emit", "c2", "--dir", d]) == 0
    c2f, h2f = (os.path.join(d, name + io.SUFFIX) for name in ("c2", "h2"))
    capsys.readouterr()
    assert run(["build", "smash", "--coalgebra", c2f, "--comodule", h2f]) == 2
    assert capsys.readouterr().err == \
        "usage error: %s is not a comodule-algebra file\n" % h2f
    assert run(["build", "smash"]) == 2
    assert capsys.readouterr().err == "usage error: a module-coalgebra file is required\n"
    # a comodule algebra of the right kind on the wrong side keeps its typed error
    right = os.path.join(d, "right" + io.SUFFIX)
    io.emit_value(regular_comodule_algebra(h2(QQ), "right"), right, base_path=h2f)
    assert run(["build", "smash", "--coalgebra", c2f, "--comodule", right]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _module_coalgebra_of_dim(payload, dim):
    payload["dim"] = dim
    for key in ("comult", "counit", "left_action", "right_action"):
        payload[key] = []


def _quasi_hopf_of_dim(payload, dim):
    payload["algebra"].update(dim=dim, mult=[], unit=[])


@pytest.mark.parametrize("dim", [0, -1])
@pytest.mark.parametrize("fixture, kind, resize", [
    ("c2", "module-coalgebra", _module_coalgebra_of_dim),
    ("h2", "quasi-hopf", _quasi_hopf_of_dim),
])
def test_non_positive_dimension_is_a_parse_error(tmp_path, capsys, dim, fixture, kind,
                                                 resize):
    # with no rows to fall out of range, the dimension itself is rejected
    assert run(["fixture", "emit", fixture, "--dir", str(tmp_path)]) == 0
    path = str(tmp_path / (fixture + io.SUFFIX))
    payload = json.load(open(path))
    resize(payload, dim)
    open(path, "w").write(io.canonical_dumps(payload))
    capsys.readouterr()
    assert run(["check", path]) == 2
    reason = ("zero-dimensional leg" if dim == 0 else "leg of negative dimension %d" % dim)
    assert capsys.readouterr().err == "parse error: [%s] %s rejected\n" % (kind, reason)


def test_stale_companion_hash_rejected(tmp_path):
    assert run(["fixture", "emit", "c2", "--dir", str(tmp_path)]) == 0
    base = tmp_path / ("h2" + io.SUFFIX)
    # tamper with the base after the companion hash was recorded
    payload = json.load(open(base))
    payload["name"] = "tampered"
    open(base, "w").write(io.canonical_dumps(payload))
    with pytest.raises(HashMismatch):
        io.parse(str(tmp_path / ("c2" + io.SUFFIX)))
    assert run(["check", str(tmp_path / ("c2" + io.SUFFIX))]) == 2


def test_check_failure_exit_code(tmp_path):
    path = str(tmp_path / ("h2" + io.SUFFIX))
    io.emit_value(h2(QQ), path)
    payload = json.load(open(path))
    payload["alpha"] = [[0, "1"]]      # breaks the zigzag law
    open(path, "w").write(io.canonical_dumps(payload))
    assert run(["check", path]) == 1


def test_usage_error_exit_code(tmp_path):
    assert run(["check", str(tmp_path / "missing.qha.json")]) == 2
    assert run(["fixture", "emit", "nope", "--dir", str(tmp_path)]) == 2


def test_convert_variant_without_input_is_a_usage_error(capsys):
    assert run(["convert", "variant"]) == 2
    assert capsys.readouterr().err == "usage error: an --input file is required\n"


def test_bad_kind_names_are_usage_errors(tmp_path, capsys):
    d = str(tmp_path)
    for name in ("c2", "hh-bicomodule", "h2-bimodule-coalgebra"):
        assert run(["fixture", "emit", name, "--dir", d]) == 0
    c2f, hhf, bmc, h2f = (os.path.join(d, name + io.SUFFIX) for name in (
        "c2", "hh-bicomodule", "h2-bimodule-coalgebra", "h2"))
    right = os.path.join(d, "right" + io.SUFFIX)
    io.emit_value(regular_comodule_algebra(h2(QQ), "right"), right, base_path=h2f)
    capsys.readouterr()
    # build diagonal has no default kind, and its kind is read before any file
    want = "usage error: diagonal kind must be one of left-l, left-r, right-l, right-r\n"
    diagonal = ["build", "diagonal", "--bicomodule", hhf, "--coalgebra", bmc]
    for argv in (diagonal, diagonal + ["--kind", "left-x"], diagonal + ["--kind", "BC"],
                 ["build", "diagonal", "--kind", "left-x"]):
        assert run(argv) == 2
        assert capsys.readouterr().err == want
    for path, message in ((h2f, "quasi-hopf variants: op, cop, opcop"),
                          (right, "comodule-algebra variants: cop, opcop, op, op-antipode"),
                          (c2f, "module-coalgebra variants: cop, as-right")):
        assert run(["convert", "variant", "--input", path, "--kind", "bogus"]) == 2
        assert capsys.readouterr().err == "usage error: %s\n" % message
    # BC stays the coring's default kind
    assert run(["build", "coring", "--coalgebra", c2f]) == 0


def _mixed_base_files(d):
    """Algebra files over h2 and coalgebra files over kz2, keyed by the
    placeholders of the command lines below."""
    a, b = inputs(QQ, h2(QQ)), inputs(QQ, kz2(QQ))
    paths = {}
    for w, values in ((a, {"A": a.A, "B": a.left, "R": a.right}),
                      (b, {"C": b.C_right, "CL": b.C_left, "CB": b.C_bi})):
        base = os.path.join(d, w.H.name + io.SUFFIX)
        io.emit_value(w.H, base)
        for key, value in values.items():
            paths[key] = os.path.join(d, key + io.SUFFIX)
            io.emit_value(value, paths[key], base_path=base)
    return paths


@pytest.mark.parametrize("argv", [
    "build smash --coalgebra C --comodule B",
    "build rsmash --bicomodule A --coalgebra CB",
    "build koppinen --coalgebra C --comodule B",
    "build diagonal --kind right-l --bicomodule A --coalgebra CB",
    "build coring --kind BC --coalgebra C --comodule B",
    "build coring --kind CA --coalgebra CL --comodule R",
    "build coring --kind YD --bicomodule A --coalgebra CB",
    "verify prop-3.10 --A A --C CB",
    "verify roundtrip-3.8 --A A --C CB",
    "verify rat-2.5 --C C --B B",
    "verify adjunction-2.2 --C C --B B",
    "convert yd2dh --bicomodule A --coalgebra CB",
    "convert dh2yd --bicomodule A --coalgebra CB",
])
def test_inputs_over_different_bases_are_a_typed_error(tmp_path, capsys, argv):
    paths = _mixed_base_files(str(tmp_path))
    capsys.readouterr()
    assert run([paths.get(word, word) for word in argv.split()]) == 1
    assert capsys.readouterr().err == "error: inputs are built over different bases\n"


def test_gauge_over_a_different_base_is_a_typed_error(tmp_path, capsys):
    # h2 (x) h2 and Sweedler's algebra are both 4-dimensional
    d = str(tmp_path)
    write_sweedler_gauge(d, "q")
    path = os.path.join(d, "hh" + io.SUFFIX)
    io.emit_value(hopf.tensor_qha(h2(QQ), h2(QQ)), path)
    capsys.readouterr()
    assert run(["twist", path, "--gauge", os.path.join(d, "g" + io.SUFFIX)]) == 1
    assert capsys.readouterr().err == "error: gauge lives over a different structure\n"


@pytest.mark.parametrize("companions", [[1], "h2", 5])
def test_companions_that_are_no_object_are_a_parse_error(tmp_path, capsys, companions):
    assert run(["fixture", "emit", "c2", "--dir", str(tmp_path)]) == 0
    path = str(tmp_path / ("c2" + io.SUFFIX))
    payload = json.load(open(path))
    payload["companions"] = companions
    open(path, "w").write(io.canonical_dumps(payload))
    capsys.readouterr()
    assert run(["check", path]) == 2
    assert capsys.readouterr().err == (
        "parse error: [module-coalgebra] companions %r are not an object\n" % (companions,))


def test_main_builds_its_parser_once(monkeypatch, tmp_path):
    from quasihopf import cli
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or original())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert run(["fixture", "emit", "h2", "--dir", str(tmp_path)]) == 0
        assert run(["convert", "nope"]) == 2
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_report_determinism_across_jobs(tmp_path):
    path = str(tmp_path / ("h2" + io.SUFFIX))
    io.emit_value(h2(QQ), path)
    r1 = str(tmp_path / "r1.json")
    r4 = str(tmp_path / "r4.json")
    assert run(["--report", r1, "--jobs", "1", "check", path]) == 0
    assert run(["--report", r4, "--jobs", "4", "check", path]) == 0
    assert open(r1, "rb").read() == open(r4, "rb").read()


def test_report_determinism_env_override(tmp_path, monkeypatch):
    path = str(tmp_path / ("h2" + io.SUFFIX))
    io.emit_value(h2(QQ), path)
    r1 = str(tmp_path / "r1.json")
    r2 = str(tmp_path / "r2.json")
    assert run(["--report", r1, "check", path]) == 0
    monkeypatch.setenv("QHA_JOBS", "4")
    assert run(["--report", r2, "check", path]) == 0
    assert open(r1, "rb").read() == open(r2, "rb").read()


@pytest.mark.parametrize("command", [
    ["fixture", "emit", "h2"],
    ["check", "h2.qha.json"],
    ["dtwist", "h2.qha.json"],
    ["twist", "h2.qha.json", "--gauge", "h2.qha.json"],
    ["verify", "rat-2.5", "--C", "c2.qha.json"],
])
def test_bad_jobs_env_is_a_usage_error_for_every_command(tmp_path, monkeypatch,
                                                          command):
    monkeypatch.chdir(tmp_path)
    assert run(["fixture", "emit", "c2"]) == 0
    monkeypatch.setenv("QHA_JOBS", "abc")
    assert run(command) == 2


def test_dtwist_and_twist_pipeline(tmp_path):
    base = str(tmp_path / ("h2" + io.SUFFIX))
    io.emit_value(h2(QQ), base)
    gauge = str(tmp_path / "gauge.qha.json")
    out = str(tmp_path / "twisted.qha.json")
    assert run(["dtwist", base, "--out", gauge]) == 0
    assert run(["check", gauge]) == 0
    assert run(["twist", base, "--gauge", gauge, "--out", out]) == 0
    assert run(["check", out]) == 0


def test_verify_suites_through_cli(tmp_path):
    d = str(tmp_path)
    assert run(["fixture", "emit", "c2", "--dir", d]) == 0
    assert run(["fixture", "emit", "hh-bicomodule", "--dir", d]) == 0
    assert run(["fixture", "emit", "h2-bimodule-coalgebra", "--dir", d]) == 0
    c2f = os.path.join(d, "c2" + io.SUFFIX)
    hhf = os.path.join(d, "hh-bicomodule" + io.SUFFIX)
    bmc = os.path.join(d, "h2-bimodule-coalgebra" + io.SUFFIX)
    assert run(["verify", "rat-2.5", "--C", c2f]) == 0
    assert run(["verify", "adjunction-2.2", "--C", c2f]) == 0
    assert run(["verify", "iso-2.9", "--C", c2f]) == 0
    assert run(["verify", "prop-3.10", "--A", hhf, "--C", bmc]) == 0
    assert run(["verify", "roundtrip-3.8", "--A", hhf, "--C", bmc]) == 0


def test_build_commands_through_cli(tmp_path):
    d = str(tmp_path)
    run(["fixture", "emit", "c2", "--dir", d])
    run(["fixture", "emit", "hh-bicomodule", "--dir", d])
    run(["fixture", "emit", "h2-bimodule-coalgebra", "--dir", d])
    c2f = os.path.join(d, "c2" + io.SUFFIX)
    hhf = os.path.join(d, "hh-bicomodule" + io.SUFFIX)
    bmc = os.path.join(d, "h2-bimodule-coalgebra" + io.SUFFIX)
    out = os.path.join(d, "product" + io.SUFFIX)
    assert run(["build", "smash", "--coalgebra", c2f, "--out", out]) == 0
    assert run(["check", out]) == 0
    assert run(["build", "koppinen", "--coalgebra", c2f]) == 0
    for kind in ("left-l", "left-r", "right-l", "right-r"):
        assert run(["build", "diagonal", "--bicomodule", hhf,
                    "--coalgebra", bmc, "--kind", kind]) == 0
    assert run(["build", "rsmash", "--bicomodule", hhf, "--coalgebra", bmc]) == 0
    assert run(["build", "coring", "--kind", "BC", "--coalgebra", c2f]) == 0
    assert run(["build", "coring", "--kind", "YD", "--bicomodule", hhf,
                "--coalgebra", bmc]) == 0


def test_convert_commands_through_cli(tmp_path):
    d = str(tmp_path)
    run(["fixture", "emit", "h2", "--dir", d])
    run(["fixture", "emit", "hh-bicomodule", "--dir", d])
    run(["fixture", "emit", "h2-bimodule-coalgebra", "--dir", d])
    h2f = os.path.join(d, "h2" + io.SUFFIX)
    hhf = os.path.join(d, "hh-bicomodule" + io.SUFFIX)
    bmc = os.path.join(d, "h2-bimodule-coalgebra" + io.SUFFIX)
    out = os.path.join(d, "variant" + io.SUFFIX)
    assert run(["convert", "variant", "--input", h2f, "--kind", "cop",
                "--out", out]) == 0
    assert run(["check", out]) == 0
    assert run(["convert", "bicomodule-r1r2", "--input", hhf]) == 0
    assert run(["convert", "yd2dh", "--bicomodule", hhf, "--coalgebra", bmc]) == 0
    assert run(["convert", "dh2yd", "--bicomodule", hhf, "--coalgebra", bmc]) == 0


def test_convert_variant_as_right_needs_a_left_coalgebra(tmp_path, capsys):
    d = str(tmp_path)
    run(["fixture", "emit", "c2", "--dir", d])
    run(["fixture", "emit", "h2-bimodule-coalgebra", "--dir", d])
    for name in ("c2", "h2-bimodule-coalgebra"):           # right, bi
        path = os.path.join(d, name + io.SUFFIX)
        capsys.readouterr()
        assert run(["convert", "variant", "--input", path, "--kind", "as-right"]) == 1
        assert "starts from a left structure" in capsys.readouterr().err
    # Sweedler's algebra over itself by left multiplication (Phi = 1)
    H = sweedler(QQ)
    C = ModuleCoalgebra(H, "left", H.dim, H.comult, H.counit, left_action=H.alg.mult,
                        name="sweedler-left")
    base = os.path.join(d, "sweedler" + io.SUFFIX)
    path = os.path.join(d, "left" + io.SUFFIX)
    out = os.path.join(d, "as-right" + io.SUFFIX)
    io.emit_value(H, base)
    io.emit_value(C, path, base_path=base)
    assert run(["convert", "variant", "--input", path, "--kind", "as-right",
                "--out", out]) == 0
    R = io.parse(out)
    assert (R.side, R.name) == ("right", "sweedler-left-as-right")
    assert R.right_action == C.left_action.permute(src=(1, 0))


def test_rsmash_second_realization(tmp_path):
    d = str(tmp_path)
    run(["fixture", "emit", "hh-bicomodule", "--dir", d])
    run(["fixture", "emit", "h2-bimodule-coalgebra", "--dir", d])
    hhf = os.path.join(d, "hh-bicomodule" + io.SUFFIX)
    bmc = os.path.join(d, "h2-bimodule-coalgebra" + io.SUFFIX)
    assert run(["build", "rsmash", "--bicomodule", hhf, "--coalgebra", bmc,
                "--realization", "2"]) == 0


def test_failing_report_sides_use_coefficient_syntax(tmp_path, field):
    # alpha = 1/2: the zigzag laws fail with tensor sides, and the advisory
    # normalization eps(alpha) eps(beta) = 1 fails with scalar sides
    path = str(tmp_path / ("h2" + io.SUFFIX))
    io.emit_value(h2(field), path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["alpha"] = [[0, "1/2"]]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(io.canonical_dumps(payload))
    report_path = str(tmp_path / "report.json")
    assert run(["--report", report_path, "check", path]) == 1
    with open(report_path, encoding="utf-8") as fh:
        text = fh.read()
    for word in ("FpElement", "Fraction", "Tensor"):
        assert word not in text
    checks = {c["id"]: c for c in json.loads(text)["subjects"][0]["checks"]}
    records = {r.check_id: r for r in verify_quasi_hopf(io.parse(path)).records}

    norm = checks["alpha-beta-normalized"]
    assert (norm["lhs"], norm["rhs"]) == (field.fmt(field.div_int(1, 2)), "1")
    zigzag = checks["zigzag-forward"]
    assert not zigzag["passed"]
    for side in ("lhs", "rhs"):
        rows = zigzag[side]
        assert rows == sorted(rows)
        assert all(isinstance(i, int) for row in rows for i in row[:-1])
        parsed = Tensor(field, (2,), {tuple(row[:-1]): field.parse(row[-1]) for row in rows})
        assert parsed == getattr(records["zigzag-forward"], side)


def test_gauge_check_takes_each_product(tmp_path, field):
    # over Sweedler's algebra, with e = (1 - g)/2 and E = e x e, the gauge
    # t = 1 - 2E is its own inverse; the stated inverse s = t + N, with
    # N = E (x x 1)(1 - E), gives t s = 1 - N and s t = 1 + N, whose sum
    # is 2, so only products compared with 1 one at a time expose s
    H = sweedler(field)
    sp = H.spaces(2)
    one = unit_tensor(sp)
    half = field.div_int(1, 2)
    e = Tensor(field, (4,), {(0,): half, (1,): -half})
    E = e.outer(e)
    N = multiply(sp, multiply(sp, E, Tensor.basis(field, (4,), (2,)).outer(H.alg.unit)),
                 one - E)
    t = one - E.scale(field.from_int(2))
    s = t + N
    assert multiply(sp, t, s) + multiply(sp, s, t) == one + one
    base = str(tmp_path / ("sweedler" + io.SUFFIX))
    path = str(tmp_path / ("gauge" + io.SUFFIX))
    io.emit_value(H, base)
    io.emit_value(GaugeTransformation(H, t, s), path, base_path=base)
    report_path = str(tmp_path / "report.json")
    assert run(["--report", report_path, "check", path]) == 1
    with open(report_path, encoding="utf-8") as fh:
        check = json.load(fh)["subjects"][0]["checks"][0]
    assert check["id"] == "two-sided-inverse" and not check["passed"]
    assert (check["lhs"], check["rhs"]) == (io.side_rows(one - N), io.side_rows(one))


def test_side_rows_of_scalars_and_flat_vectors(field):
    half = field.div_int(1, 2)
    assert io.side_rows(half) == field.fmt(half)
    assert io.side_rows((field.one, field.zero, half)) == ["1", "0", field.fmt(half)]
    assert io.side_rows(3) == 3
    t = Tensor(field, (2, 2), {(1, 0): half, (0, 1): field.one})
    assert io.side_rows(t) == [[0, 1, "1"], [1, 0, field.fmt(half)]]


def readme_commands():
    """The ``qha`` commands of the README's command-line section, with
    continuation lines joined and comments dropped."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    commands = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip().rstrip("\\").strip()
        if line.startswith("qha "):
            commands.append(line.split()[1:])
        elif line:
            commands[-1] += line.split()
    return commands


README_DIGESTS = os.path.join(os.path.dirname(__file__), "readme_digests.json")
FIELD_TAGS = ("q", "fp:10007")

# commands off the README pipeline whose bytes are pinned as well: the
# other YD conversion, the second right realization, the BC coring, the
# emitting forms of the realization and module-coalgebra conversions, and
# the emitting forms of the diagonal products and of the first rsmash
EXTRA_DIGESTS = os.path.join(os.path.dirname(__file__), "extra_digests.json")
EXTRA_COMMANDS = [line.split() for line in (
    "fixture emit c2",
    "fixture emit hh-bicomodule",
    "fixture emit h2-bimodule-coalgebra",
    "convert dh2yd --bicomodule hh-bicomodule.qha.json"
    " --coalgebra h2-bimodule-coalgebra.qha.json",
    "build rsmash --bicomodule hh-bicomodule.qha.json"
    " --coalgebra h2-bimodule-coalgebra.qha.json --realization 2 --out rs2.qha.json",
    "build coring --kind BC --coalgebra c2.qha.json",
    "convert bicomodule-r1r2 --input hh-bicomodule.qha.json --out r.qha.json",
    "convert variant --kind cop --input c2.qha.json --out c2cop.qha.json",
    "build diagonal --bicomodule hh-bicomodule.qha.json"
    " --coalgebra h2-bimodule-coalgebra.qha.json --kind left-l --out dll.qha.json",
    "build diagonal --bicomodule hh-bicomodule.qha.json"
    " --coalgebra h2-bimodule-coalgebra.qha.json --kind left-r --out dlr.qha.json",
    "build diagonal --bicomodule hh-bicomodule.qha.json"
    " --coalgebra h2-bimodule-coalgebra.qha.json --kind right-r --out drr.qha.json",
    "build rsmash --bicomodule hh-bicomodule.qha.json"
    " --coalgebra h2-bimodule-coalgebra.qha.json --realization 1 --out rs1.qha.json",
)]


# the same pin over a seeded counit-normalized gauge of Sweedler's algebra:
# every other pinned pipeline runs over h2, whose structure constants over
# Q have denominators 1 and 4 only, while the inverse of this gauge over Q
# has denominators 10, 15, 40, 60 and 120
SWEEDLER_COMMANDS = [line.split() for line in (
    "check g.qha.json",
    "twist sweedler.qha.json --gauge g.qha.json --out sf.qha.json",
    "check sf.qha.json",
    "dtwist sf.qha.json --out sff.qha.json",
)]


def write_sweedler_gauge(workdir, field_tag):
    """Write Sweedler's algebra and ``seeded_gauge(sweedler, 1)`` over
    ``field_tag`` to ``workdir``, as sweedler.qha.json and g.qha.json."""
    H = sweedler(field_from_tag(field_tag))
    base = os.path.join(workdir, "sweedler" + io.SUFFIX)
    io.emit_value(H, base)
    io.emit_value(seeded_gauge(H, 1), os.path.join(workdir, "g" + io.SUFFIX),
                  base_path=base)


def extra_digests(workdir, field_tag):
    """The digests of EXTRA_COMMANDS, then those of SWEEDLER_COMMANDS, each
    list run in its own subdirectory of ``workdir``."""
    fixtures_dir, sweedler_dir = (os.path.join(workdir, name)
                                  for name in ("fixtures", "sweedler"))
    os.mkdir(fixtures_dir)
    os.mkdir(sweedler_dir)
    write_sweedler_gauge(sweedler_dir, field_tag)
    return (command_digests(fixtures_dir, field_tag, EXTRA_COMMANDS)
            + command_digests(sweedler_dir, field_tag, SWEEDLER_COMMANDS))


def command_digests(workdir, field_tag, commands):
    """Run ``commands`` with ``--report`` in ``workdir``, the fixtures
    emitted over ``field_tag``; one sha256 per command over its exit
    code, its stdout, the report bytes and the bytes of every file it
    wrote, in name order.  Returns a list of (command, digest)."""
    def snapshot():
        return {name: open(os.path.join(workdir, name), "rb").read()
                for name in sorted(os.listdir(workdir))}

    out = []
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in commands:
            if argv[:2] == ["fixture", "emit"]:
                argv = argv + ["--field", field_tag]
            before = snapshot()
            stdout = StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run(["--report", "report.json"] + argv)
            with open("report.json", "rb") as fh:
                report = fh.read()
            os.remove("report.json")
            written = [(name, data) for name, data in snapshot().items()
                       if before.get(name) != data]
            payload = repr((code, stdout.getvalue(), report, written))
            out.append([" ".join(argv),
                        hashlib.sha256(payload.encode()).hexdigest()])
    finally:
        os.chdir(cwd)
    return out


@pytest.mark.parametrize("field_tag", FIELD_TAGS)
def test_readme_pipeline_bytes_are_pinned(tmp_path, field_tag):
    # exit codes, stdout, reports and emitted files of the README pipeline
    # are pinned; regenerate with `PYTHONPATH=src python tests/test_cli.py`
    # only for a change meant to alter them
    with open(README_DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)[field_tag]
    got = command_digests(str(tmp_path), field_tag, readme_commands())
    assert len(got) == 20
    assert [cmd for cmd, digest in got if [cmd, digest] not in want] == []
    assert got == want


@pytest.mark.parametrize("field_tag", FIELD_TAGS)
def test_extra_command_bytes_are_pinned(tmp_path, field_tag):
    # the same pin for the commands of EXTRA_COMMANDS and SWEEDLER_COMMANDS
    with open(EXTRA_DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)[field_tag]
    got = extra_digests(str(tmp_path), field_tag)
    assert len(got) == len(EXTRA_COMMANDS) + len(SWEEDLER_COMMANDS)
    assert [cmd for cmd, digest in got if [cmd, digest] not in want] == []
    assert got == want


# the failing reports of single-entry mutants are pinned as well: every
# entry of every map of c2 and of h2-bimodule-coalgebra, bumped by 3
MUTANT_DIGESTS = os.path.join(os.path.dirname(__file__), "mutant_digests.json")
MUTANT_MAPS = ("comult", "counit", "left_action", "right_action")


def coalgebra_mutants(field):
    """(label, mutant) for every single-entry bump of c2 and of
    h2-bimodule-coalgebra, the entry at each source and target index of
    each of their maps, zero entries included."""
    delta = field.from_int(3)
    for C in (c2(field), h2_bimodule_coalgebra(field)):
        for attr in MUTANT_MAPS:
            m = getattr(C, attr)
            if m is None:
                continue
            for src in all_indices(m.src):
                for dst in all_indices(m.dst):
                    cols = {k: dict(v) for k, v in m.cols.items()}
                    img = cols.setdefault(src, {})
                    img[dst] = img.get(dst, field.zero) + delta
                    maps = {a: getattr(C, a) for a in MUTANT_MAPS}
                    maps[attr] = LinMap(field, m.src, m.dst, cols)
                    yield ("%s %s %r %r" % (C.name, attr, src, dst),
                           ModuleCoalgebra(C.H, C.side, C.dim, maps["comult"],
                                           maps["counit"], maps["left_action"],
                                           maps["right_action"], name=C.name))


def _report_digest(build):
    """sha256 of the canonical JSON report of ``build()``, or the class
    and message of the typed error it raises."""
    try:
        report = build()
    except QuasiHopfError as exc:
        return [type(exc).__name__, str(exc)]
    payload = io.canonical_dumps(_report_json([report]))
    return hashlib.sha256(payload.encode()).hexdigest()


def mutant_digests(field_tag):
    field = field_from_tag(field_tag)
    out = {}
    for label, C in coalgebra_mutants(field):
        entry = {"module-coalgebra": _report_digest(lambda: verify_module_coalgebra(C)),
                 "module-algebra": _report_digest(
                     lambda: verify_module_algebra(dualize(C)))}
        if C.side == "right":
            entry["coring-BC"] = _report_digest(lambda: verify_coring(build_coring(
                "BC", B=regular_comodule_algebra(C.H, "left"), C=C)))
        out[label] = entry
    return out


@pytest.mark.parametrize("field_tag", FIELD_TAGS)
def test_mutant_report_bytes_are_pinned(field_tag):
    # the lhs and rhs of failing records, not only verdicts, stay fixed
    with open(MUTANT_DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)[field_tag]
    got = mutant_digests(field_tag)
    assert len(got) == 44
    assert [label for label in got if got[label] != want.get(label)] == []
    assert got == want


@pytest.mark.parametrize("field_tag", ["q", "fp:10007"])
def test_readme_pipeline_makes_no_dense_inverse(tmp_path, monkeypatch, field_tag):
    # every reassociator inverse on the README pipeline has a closed form:
    # no command may fall back to the linear solve of invert_element
    original = tensor.invert_element
    calls = []

    def counted(spaces, x):
        calls.append(x.dims)
        return original(spaces, x)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "quasihopf" and \
                getattr(module, "invert_element", None) is original:
            monkeypatch.setattr(module, "invert_element", counted)
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 20
    for argv in commands:
        if argv[:2] == ["fixture", "emit"]:
            argv = argv + ["--field", field_tag]
        assert run(argv) == 0, argv
        assert calls == [], argv


SQUARE_BASE_COMMANDS = [line.split() for line in (
    "build rsmash --bicomodule hh-bicomodule.qha.json"
    " --coalgebra h2-bimodule-coalgebra.qha.json",
    "build coring --kind YD --bicomodule hh-bicomodule.qha.json"
    " --coalgebra h2-bimodule-coalgebra.qha.json",
    "verify prop-3.10 --A hh-bicomodule.qha.json --C h2-bimodule-coalgebra.qha.json",
    "verify roundtrip-3.8 --A hh-bicomodule.qha.json --C h2-bimodule-coalgebra.qha.json",
    "convert yd2dh --bicomodule hh-bicomodule.qha.json"
    " --coalgebra h2-bimodule-coalgebra.qha.json",
    "convert bicomodule-r1r2 --input hh-bicomodule.qha.json",
)]


@pytest.mark.parametrize("field_tag", FIELD_TAGS)
def test_square_base_commands_build_one_square(tmp_path, monkeypatch, field_tag):
    # the square H^op (x) H is cached on the base of A and handed to the
    # coalgebra, which the command reads over an equal copy of the base
    original = hopf.tensor_qha
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(hopf, "tensor_qha", counted)
    monkeypatch.chdir(tmp_path)
    for name in ("hh-bicomodule", "h2-bimodule-coalgebra"):
        assert run(["fixture", "emit", name, "--field", field_tag]) == 0
    for argv in SQUARE_BASE_COMMANDS:
        del calls[:]
        assert run(argv) == 0, argv
        assert len(calls) == 1, argv


def test_package_builds_no_map_column_by_column():
    # every derived map is built in one pass on the tensor form of its
    # input: the column-by-column builder is a test reference only
    # (tests/tensor_case.py), and no module of the package defines one
    assert not hasattr(LinMap, "from_function")
    defined = [scope for module, tree in package_trees()
               for scope, node in scoped_nodes(tree, module)
               if isinstance(node, ast.FunctionDef) and node.name == "from_function"]
    assert defined == []


if __name__ == "__main__":
    import tempfile
    for path, digests_in in ((README_DIGESTS, lambda tmp, tag: command_digests(
                                  tmp, tag, readme_commands())),
                             (EXTRA_DIGESTS, extra_digests)):
        digests = {}
        for tag in FIELD_TAGS:
            with tempfile.TemporaryDirectory() as tmp:
                digests[tag] = digests_in(tmp, tag)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{\n%s\n}\n" % ",\n".join(
                "%s: [\n%s\n]" % (json.dumps(tag), ",\n".join(
                    "  " + json.dumps(pair) for pair in pairs))
                for tag, pairs in digests.items()))
    with open(MUTANT_DIGESTS, "w", encoding="utf-8") as fh:
        fh.write("{\n%s\n}\n" % ",\n".join(
            "%s: {\n%s\n}" % (json.dumps(tag), ",\n".join(
                "  %s: %s" % (json.dumps(label), json.dumps(entry, sort_keys=True))
                for label, entry in mutant_digests(tag).items()))
            for tag in FIELD_TAGS))
