"""References for the antipode layer of ``hopf``, in the forms the
library used before its factors were contracted where they land.

Each chain here forms the outer product with a factor (alpha, beta,
gamma, delta, a gauge) and merges that factor's legs back into the
running element one ``merge`` at a time, and each unit-padded product
(Phi (x) 1, a gauge at two of three legs) builds the padded tensor with
``embed_legs`` first.  The library multiplies every such factor in where
it lands, with ``El.mul_embedded`` and ``El.premul_embedded``; the tests
in ``test_qha_reference.py`` compare the two record for record.

The reference verifier also keeps the per-item sweeps: one small
pipeline per basis element or basis pair, through ``CheckReport.sweep``.
The library runs each of those sweeps once over the tensor form of its
map, the item on a leading leg, through ``CheckReport.sweep_all``.
"""

from quasihopf.hopf import GaugeTransformation, QuasiHopfAlgebra
from quasihopf.report import CheckReport
from quasihopf.tensor import (El, LinMap, Tensor, all_indices, apply_linear_map,
                              embed_legs, multiply, unit_tensor)


def basis_el(H, i):
    """The basis element e_i of the base as a one-leg ``El``."""
    return El.basis((H.alg,), (i,))


def _algebra_map_records(report, H, fn, unit_image, tag):
    """Check that basis-wise fn respects products and the unit, one basis
    pair at a time."""
    alg = H.alg

    def image(i):
        return fn(Tensor.basis(alg.field, (alg.dim,), (i,)))

    def multiplicative(pair):
        i, j = pair
        img = fn(alg.basis_product(i, j))
        if img.arity:
            return img, multiply([alg] * img.arity, image(i), image(j))
        return img.get(()), image(i).get(()) * image(j).get(())

    report.sweep(tag + "-multiplicative", all_indices((alg.dim, alg.dim)),
                 multiplicative)
    report.add(tag + "-unital", fn(alg.unit) == unit_image)


def reference_unit_witness(alg):
    """``FinAlgebra.unit_witness`` one basis element at a time."""
    for i in range(alg.dim):
        e = Tensor.basis(alg.field, (alg.dim,), (i,))
        if alg.product(alg.unit, e) != e or alg.product(e, alg.unit) != e:
            return (i,)
    return None


def reference_verify_fin_algebra(alg, report):
    witness = alg.associativity_witness()
    report.add("mult-associative", witness is None, witness=witness)
    witness = reference_unit_witness(alg)
    report.add("unit-two-sided", witness is None, witness=witness)


def reference_verify_quasi_hopf(H) -> CheckReport:
    """``hopf.verify_quasi_hopf`` with the padded cocycle and the
    outer-product antipode chains."""
    report = CheckReport("quasi-hopf %s" % (H.name or ""))
    alg, S = H.alg, H.antipode
    reference_verify_fin_algebra(alg, report)
    _algebra_map_records(report, H, lambda x: apply_linear_map(H.comult, x, (0,)),
                         unit_tensor(H.spaces(2)), "comult")
    _algebra_map_records(report, H, lambda x: apply_linear_map(H.counit, x, (0,)),
                         Tensor.scalar(H.field, H.field.one), "counit")
    phi = H.el(H.reassoc)
    phi_inv = H.el(H.reassoc_inv)
    report.compare("reassoc-invertible", phi.mul(phi_inv).t, H.unit_el(3).t)
    basis = all_indices((alg.dim,))

    def coassoc(idx):
        h2 = basis_el(H, idx[0]).map(H.comult, 0)
        return h2.map(H.comult, 1).mul(phi).t, phi.mul(h2.map(H.comult, 0)).t

    report.sweep("quasi-coassoc", basis, coassoc)

    def counit_law(idx):
        h2 = basis_el(H, idx[0]).map(H.comult, 0)
        left = h2.map(H.counit, (0,)).t
        want = basis_el(H, idx[0]).t
        return left if left != want else h2.map(H.counit, (1,)).t, want

    report.sweep("counit-comult", basis, counit_law)
    sp4 = H.spaces(4)
    lhs = H.el(embed_legs(sp4, H.reassoc, (1, 2, 3))).mul(phi.map(H.comult, 1))
    lhs = lhs.mul(H.el(embed_legs(sp4, H.reassoc, (0, 1, 2))))
    rhs = phi.map(H.comult, 2).mul(phi.map(H.comult, 0))
    report.compare("cocycle", lhs.t, rhs.t)
    unit2 = H.unit_el(2).t
    report.compare("reassoc-counit-middle", phi.map(H.counit, (1,)).t, unit2)
    report.compare("reassoc-counit-left", phi.map(H.counit, (0,)).t, unit2)
    report.compare("reassoc-counit-right", phi.map(H.counit, (2,)).t, unit2)

    def antimultiplicative(pair):
        i, j = pair
        return (apply_linear_map(S, alg.basis_product(i, j), (0,)),
                alg.product(S.column((j,)), S.column((i,))))

    report.sweep("antipode-antimultiplicative", all_indices((alg.dim, alg.dim)),
                 antimultiplicative)
    report.compare("antipode-unital", apply_linear_map(S, alg.unit, (0,)), alg.unit)
    report.add("antipode-invertible", S.is_invertible())
    alpha_el = El((alg,), H.alpha)
    beta_el = El((alg,), H.beta)

    def cancel(leg, factor):
        def law(idx):
            h2 = basis_el(H, idx[0]).map(H.comult, 0)
            return (h2.map(S, leg).times(factor).merge(0, 2).merge(0, 1).t,
                    factor.t.scale(H.counit_scalar(idx[0])))
        return law

    report.sweep("antipode-cancel-left", basis, cancel(0, alpha_el))
    report.sweep("antipode-cancel-right", basis, cancel(1, beta_el))
    zig = phi.map(S, 1).times(beta_el).merge(0, 3).merge(0, 1)
    zig = zig.times(alpha_el).merge(0, 2).merge(0, 1)
    report.compare("zigzag-forward", zig.t, H.alg.unit)
    zag = phi_inv.map(S, 0).map(S, 2).times(alpha_el).merge(0, 3).merge(0, 1)
    zag = zag.times(beta_el).merge(0, 2).merge(0, 1)
    report.compare("zigzag-backward", zag.t, H.alg.unit)
    norm = H.eps(H.alpha) * H.eps(H.beta)
    report.add("alpha-beta-normalized", norm == H.field.one, fatal=False,
               lhs=norm, rhs=H.field.one)
    return report


def reference_conjugates_antipode(report, value, twist):
    """``qha dtwist``'s conjugation check, one basis element at a time."""
    spaces = value.spaces(2)
    flip = value.comult.permute(dst=(1, 0))

    def conjugates(idx):
        s_h = apply_linear_map(value.antipode, basis_el(value, idx[0]).t, (0,))
        lhs = multiply(spaces, twist.t, multiply(
            spaces, apply_linear_map(value.comult, s_h, (0,)), twist.inv))
        flipped = flip.column(idx)
        return lhs, apply_linear_map(value.antipode,
                                     apply_linear_map(value.antipode, flipped, (0,)), (1,))

    report.sweep("conjugates-antipode", all_indices((value.dim,)), conjugates)


def reference_gauge_twist(H, F) -> QuasiHopfAlgebra:
    """``hopf.gauge_twist`` with padded gauges and outer-product alpha_F
    and beta_F."""
    alg = H.alg
    f, g = H.el(F.t), H.el(F.inv)

    def comult_f(idx):
        return f.mul(basis_el(H, idx[0]).map(H.comult, 0)).mul(g).t

    comult = LinMap.from_function(H.field, (alg.dim,), (alg.dim, alg.dim),
                                  comult_f, dst_spaces=(alg, alg))
    sp3 = H.spaces(3)
    phi_f = H.el(embed_legs(sp3, F.t, (1, 2))).mul(f.map(H.comult, 1)).mul(
        H.el(H.reassoc)).mul(g.map(H.comult, 0)).mul(H.el(embed_legs(sp3, F.inv, (0, 1))))
    phi_f_inv = H.el(embed_legs(sp3, F.t, (0, 1))).mul(f.map(H.comult, 0)).mul(
        H.el(H.reassoc_inv)).mul(g.map(H.comult, 1)).mul(
        H.el(embed_legs(sp3, F.inv, (1, 2))))
    alpha_f = g.map(H.antipode, 0).times(El((alg,), H.alpha)).merge(0, 2).merge(0, 1).t
    beta_f = f.map(H.antipode, 1).times(El((alg,), H.beta)).merge(0, 2).merge(0, 1).t
    return QuasiHopfAlgebra(alg, comult, H.counit, phi_f.t, H.antipode,
                            alpha_f, beta_f, reassoc_inv=phi_f_inv.t,
                            name=(H.name + "_twisted") if H.name else "")


def reference_drinfeld_twist(H) -> GaugeTransformation:
    """``hopf.drinfeld_twist`` with padded reassociators and the gamma,
    delta and x2 beta S(x3) factors merged in after an outer product;
    not cached."""
    alg, S = H.alg, H.antipode
    alpha_el = El((alg,), H.alpha)
    beta_el = El((alg,), H.beta)
    sp4 = H.spaces(4)
    a4 = H.el(embed_legs(sp4, H.reassoc, (0, 1, 2))).mul(
        H.el(H.reassoc_inv).map(H.comult, 0))
    b4 = H.el(H.reassoc).map(H.comult, 0).mul(
        H.el(embed_legs(sp4, H.reassoc_inv, (0, 1, 2))))
    gamma = a4.map(S, 0).map(S, 1)
    gamma = gamma.times(alpha_el).merge(1, 4).merge(1, 2)
    gamma = gamma.times(alpha_el).merge(0, 3).merge(0, 2)
    gamma = gamma.perm((1, 0))
    delta = b4.map(S, 2).map(S, 3)
    delta = delta.times(beta_el).merge(0, 4).merge(0, 3)
    delta = delta.times(beta_el).merge(1, 3).merge(1, 2)
    phi_inv = H.el(H.reassoc_inv)
    e = phi_inv.map(H.comult, 0).perm((1, 0, 2, 3))
    e = e.map(S, 0).map(S, 1)
    e = e.map(S, 3).times(beta_el).merge(2, 4).merge(2, 3)
    e = e.map(H.comult, 2)
    e = e.times(gamma).merge(0, 4).merge(1, 4)
    twist = e.merge(0, 2).merge(1, 2)
    e = phi_inv.map(S, 0).times(alpha_el).merge(0, 3).merge(0, 1)
    e = e.map(H.comult, 0)
    e = e.map(H.comult, 2).perm((0, 1, 3, 2)).map(S, 2).map(S, 3)
    e = e.times(delta).merge(0, 4).merge(1, 4)
    twist_inv = e.merge(0, 2).merge(1, 2)
    return GaugeTransformation(H, twist.t, twist_inv.t)
