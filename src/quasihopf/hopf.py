"""Quasi-bialgebras and quasi-Hopf algebras by structure constants.

Provides exhaustive axiom verification, gauge twisting, the op / cop /
op-cop variants, tensor products, and the explicit construction of the
gauge transformation that conjugates the antipode into an
anti-coalgebra map (the Drinfeld twist), together with its inverse.
"""

from __future__ import annotations

from .errors import (AntipodeNotInvertible, AntipodeRequired, GaugeNotNormalized, MixedBase,
                     NotInvertible, ShapeMismatch)
from .report import CheckReport
from .tensor import (El, FinAlgebra, LinMap, Tensor, _identity, apply_linear_map,
                     build_tensor_algebra, interleave, multiplicative_sides, multiply,
                     switch_legs, unit_tensor)


class QuasiBialgebra:
    """Algebra + comultiplication + counit + invertible reassociator."""

    def __init__(self, alg: FinAlgebra, comult: LinMap, counit: LinMap,
                 reassoc: Tensor, reassoc_inv: Tensor, name=""):
        d = alg.dim
        if comult.src != (d,) or comult.dst != (d, d):
            raise ShapeMismatch("comultiplication has shape %r -> %r" % (comult.src, comult.dst))
        if counit.src != (d,) or counit.dst != ():
            raise ShapeMismatch("counit has shape %r -> %r" % (counit.src, counit.dst))
        if reassoc.dims != (d, d, d):
            raise ShapeMismatch("reassociator dims %r" % (reassoc.dims,))
        self.alg = alg
        self.field = alg.field
        self.dim = d
        self.comult = comult.rebind((alg, alg))
        self.counit = counit.rebind(())
        self.reassoc = reassoc
        self.reassoc_inv = reassoc_inv
        self.name = name

    def spaces(self, n: int):
        return (self.alg,) * n

    def el(self, t: Tensor, legs) -> El:
        return El(self.spaces(t.arity), t, legs)

    def counit_scalar(self, i: int):
        return self.counit.column((i,)).get(())

    def same_structure(self, other) -> bool:
        """Structural equality of the shared bialgebra data; derived
        bases built twice compare equal even as distinct objects."""
        if self is other:
            return True
        if not isinstance(other, QuasiBialgebra) or self.dim != other.dim:
            return False
        return (self.alg.mult == other.alg.mult and self.alg.unit == other.alg.unit
                and self.comult == other.comult and self.counit == other.counit
                and self.reassoc == other.reassoc)

    def eps(self, x: Tensor):
        """Apply the counit to every leg; returns a scalar."""
        out = x
        for _ in range(x.arity):
            out = apply_linear_map(self.counit, out, (0,))
        return out.get(())

    def __getattr__(self, name):
        # called only for attributes the object lacks, so the antipode
        # data of a quasi-Hopf base never reach it: every construction
        # that needs them just reads them
        if name in ("antipode", "antipode_inv", "alpha", "beta"):
            raise AntipodeRequired("the base%s has no antipode data (%s was read)"
                                   % (" " + self.name if self.name else "", name))
        raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))

    def __repr__(self):
        return "QuasiBialgebra(dim=%d%s)" % (self.dim, ", %r" % self.name if self.name else "")


class QuasiHopfAlgebra(QuasiBialgebra):
    """Quasi-bialgebra with antipode data (S, alpha, beta)."""

    def __init__(self, alg, comult, counit, reassoc, antipode: LinMap,
                 alpha: Tensor, beta: Tensor, reassoc_inv: Tensor, name=""):
        super().__init__(alg, comult, counit, reassoc, reassoc_inv, name=name)
        d = alg.dim
        if antipode.src != (d,) or antipode.dst != (d,):
            raise ShapeMismatch("antipode has shape %r -> %r" % (antipode.src, antipode.dst))
        if alpha.dims != (d,) or beta.dims != (d,):
            raise ShapeMismatch("alpha/beta must be arity-1 tensors")
        self.antipode = antipode.rebind((alg,))
        self.alpha = alpha
        self.beta = beta
        self._antipode_inv = None

    @property
    def antipode_inv(self) -> LinMap:
        if self._antipode_inv is None:
            try:
                inv = self.antipode.inverse()
            except NotInvertible as exc:
                raise AntipodeNotInvertible(str(exc)) from exc
            inv.dst_spaces = (self.alg,)
            self._antipode_inv = inv
        return self._antipode_inv

    def bialgebra(self) -> QuasiBialgebra:
        return QuasiBialgebra(self.alg, self.comult, self.counit,
                              self.reassoc, self.reassoc_inv, name=self.name)

    def __repr__(self):
        return "QuasiHopfAlgebra(dim=%d%s)" % (self.dim, ", %r" % self.name if self.name else "")


class GaugeTransformation:
    """Invertible counit-normalized element of the tensor square."""

    def __init__(self, H: QuasiBialgebra, t: Tensor, inv: Tensor):
        if t.dims != (H.dim, H.dim):
            raise ShapeMismatch("gauge dims %r" % (t.dims,))
        unit = H.alg.unit
        if apply_linear_map(H.counit, t, (0,)) != unit or \
                apply_linear_map(H.counit, t, (1,)) != unit:
            raise GaugeNotNormalized("counit normalization fails")
        self.H = H
        self.t = t
        self.inv = inv


def verify_fin_algebra(alg: FinAlgebra, report: CheckReport):
    witness = alg.associativity_witness()
    report.add("mult-associative", witness is None, witness=witness)
    witness = alg.unit_witness()
    report.add("unit-two-sided", witness is None, witness=witness)


def _algebra_map_records(report, H: QuasiBialgebra, m: LinMap, unit_image, tag):
    """Check that m respects products and the unit, every pair of basis
    elements at once."""
    alg = H.alg
    report.sweep_all(tag + "-multiplicative", (alg.dim,) * 2,
                     *multiplicative_sides(alg, m, (alg,) * len(m.dst)))
    report.add(tag + "-unital", apply_linear_map(m, alg.unit, (0,)) == unit_image)


def _counit_comult_record(report, comult: LinMap, counit: LinMap):
    """"counit-comult" of a coalgebra: the counit kills either leg of the
    comultiplication, every basis element at once, the left leg's side
    first."""
    ident = _identity(counit.field, counit.src[0])
    t = comult.as_tensor()
    report.sweep_sides("counit-comult", counit.src,
                       [(tuple, apply_linear_map(counit, t, (leg,)), ident) for leg in (1, 2)])


def verify_quasi_bialgebra(H: QuasiBialgebra) -> CheckReport:
    """Exhaustive check of the quasi-bialgebra axioms over the basis.

    Each basis sweep runs once over all basis elements: the element's
    index rides along as a leading spectator leg (an ``alg`` leg of the
    ``El``s below) through the tensor form of the comultiplication."""
    report = CheckReport("quasi-bialgebra %s" % (H.name or ""))
    alg = H.alg
    d = alg.dim
    verify_fin_algebra(alg, report)

    _algebra_map_records(report, H, H.comult, unit_tensor(H.spaces(2)), "comult")
    _algebra_map_records(report, H, H.counit, Tensor.scalar(H.field, H.field.one), "counit")

    phi = H.el(H.reassoc, "x1 x2 x3")
    # a right inverse in a finite-dimensional associative algebra is also a
    # left inverse, and "mult-associative" is a fatal check of this report
    report.compare("reassoc-invertible", phi.mul(H.el(H.reassoc_inv, "x1 x2 x3")).t,
                   unit_tensor(H.spaces(3)))

    # comultiplication is coassociative after conjugating by the reassociator:
    # (id x Delta)Delta(h) = Phi (Delta x id)Delta(h) Phi^-1, checked multiplied
    # through by Phi on the right.  The two forms agree for every h because
    # Phi^-1 is a two-sided inverse (by "reassoc-invertible" and associativity),
    # and a report passes only if every fatal check does.
    # (id x Delta) Delta Phi against Phi (Delta x id) Delta
    h = El((alg,) * 3, H.comult.as_tensor(), "h x1 x3")
    report.sweep_all("quasi-coassoc", (d,),
                     h.map(H.comult, "x3", "x2 x3").mul(phi).tensor("h x1 x2 x3"),
                     phi.mul(h.map(H.comult, "x1", "x1 x2")).tensor("h x1 x2 x3"))

    _counit_comult_record(report, H.comult, H.counit)

    # the reassociator is a normalized 3-cocycle:
    # (1 x Phi)(id x Delta x id)(Phi)(Phi x 1) = (id x id x Delta)(Phi)(Delta x id x id)(Phi)
    lhs = H.el(H.reassoc, "b c d").mul(H.el(H.reassoc, "a b d").map(H.comult, "b", "b c"))
    lhs = lhs.mul(H.el(H.reassoc, "a b c"))
    rhs = H.el(H.reassoc, "a b c").map(H.comult, "c", "c d").mul(
        H.el(H.reassoc, "a c d").map(H.comult, "a", "a b"))
    report.compare("cocycle", lhs.tensor("a b c d"), rhs.tensor("a b c d"))

    unit2 = unit_tensor(H.spaces(2))
    report.compare("reassoc-counit-middle", phi.map(H.counit, "x2", "").t, unit2)
    report.compare("reassoc-counit-left", phi.map(H.counit, "x1", "").t, unit2)
    report.compare("reassoc-counit-right", phi.map(H.counit, "x3", "").t, unit2)
    return report


def verify_quasi_hopf(H: QuasiHopfAlgebra) -> CheckReport:
    """Quasi-bialgebra axioms plus the antipode axioms."""
    report = verify_quasi_bialgebra(H)
    report.subject = "quasi-hopf %s" % (H.name or "")
    alg, S = H.alg, H.antipode

    d = alg.dim
    # S(e_i e_j) against S(e_j) S(e_i), the pair (i, j) on the leading legs
    s_t = S.as_tensor()
    report.sweep_all("antipode-antimultiplicative", (d, d),
                     apply_linear_map(S, alg.mult.as_tensor(), (2,)),
                     multiply((alg,) * 3, s_t, s_t, x_legs=(1, 2), y_legs=(0, 2)))
    report.compare("antipode-unital", apply_linear_map(S, alg.unit, (0,)), alg.unit)
    report.add("antipode-invertible", S.is_invertible())

    # S(h1) alpha h2 = eps(h) alpha and h1 beta S(h2) = eps(h) beta, h on
    # the leading leg
    h = El((alg,) * 3, H.comult.as_tensor(), "h h1 h2")
    eps = H.counit.as_tensor()
    for check_id, leg, factor in (("antipode-cancel-left", "h1", H.alpha),
                                  ("antipode-cancel-right", "h2", H.beta)):
        report.sweep_all(check_id, (d,),
                         h.map(S, leg, leg).mul(H.el(factor, "h1")).merge("h1", "h2").t,
                         eps.outer(factor))

    # X1 beta S(X2) alpha X3 = 1
    zig = H.el(H.reassoc, "x1 x2 x3").map(S, "x2", "x2").mul(H.el(H.beta, "x1"))
    zig = zig.merge("x1", "x2").mul(H.el(H.alpha, "x1")).merge("x1", "x3")
    report.compare("zigzag-forward", zig.t, H.alg.unit)

    # S(x1) alpha x2 beta S(x3) = 1
    zag = H.el(H.reassoc_inv, "x1 x2 x3").map(S, "x1", "x1").map(S, "x3", "x3")
    zag = zag.mul(H.el(H.alpha, "x1")).merge("x1", "x2").mul(H.el(H.beta, "x1"))
    report.compare("zigzag-backward", zag.merge("x1", "x3").t, H.alg.unit)

    norm = H.eps(H.alpha) * H.eps(H.beta)
    report.add("alpha-beta-normalized", norm == H.field.one, fatal=False,
               lhs=norm, rhs=H.field.one)
    return report


def normalize_antipode(H: QuasiHopfAlgebra) -> QuasiHopfAlgebra:
    """Rescale alpha and beta so both have counit one (when possible)."""
    eps_alpha = H.eps(H.alpha)
    if not eps_alpha:
        return H
    u = H.field.one / eps_alpha
    return QuasiHopfAlgebra(H.alg, H.comult, H.counit, H.reassoc, H.antipode,
                            H.alpha.scale(u), H.beta.scale(H.field.one / u),
                            reassoc_inv=H.reassoc_inv, name=H.name)


def gauge_twist(H: QuasiHopfAlgebra, F: GaugeTransformation) -> QuasiHopfAlgebra:
    """Twist comultiplication, reassociator and alpha/beta by a gauge.
    The twist reads the gauge's products and its counit normalization,
    so the gauge's base must share H's multiplication, unit and counit."""
    G = F.H
    if G is not H and (G.alg.mult != H.alg.mult or G.alg.unit != H.alg.unit
                       or G.counit != H.counit):
        raise ShapeMismatch("gauge lives over a different structure")
    alg = H.alg
    S = H.antipode

    # F Delta(h) F^-1 for every h at once, h on the leading leg
    comult = H.el(F.t, "h1 h2").mul(El((alg,) * 3, H.comult.as_tensor(), "h h1 h2"))
    comult = LinMap.from_tensor(comult.mul(H.el(F.inv, "h1 h2")).t, 1, (alg, alg))

    # the twisted reassociator (1 x F)(id x Delta)(F) Phi (Delta x id)(F^-1)(F^-1 x 1);
    # the untwisted comultiplication throughout
    phi_f = H.el(F.t, "b c").mul(H.el(F.t, "a b").map(H.comult, "b", "b c"))
    phi_f = phi_f.mul(H.el(H.reassoc, "a b c")).mul(
        H.el(F.inv, "a c").map(H.comult, "a", "a b")).mul(H.el(F.inv, "a b"))
    # inverse by the reversed product of inverses
    phi_f_inv = H.el(F.t, "a b").mul(H.el(F.t, "a c").map(H.comult, "a", "a b"))
    phi_f_inv = phi_f_inv.mul(H.el(H.reassoc_inv, "a b c")).mul(
        H.el(F.inv, "a b").map(H.comult, "b", "b c")).mul(H.el(F.inv, "b c"))

    # S(G1) alpha G2 and F1 beta S(F2)
    alpha_f = H.el(F.inv, "a b").map(S, "a", "a").mul(H.el(H.alpha, "a")).merge("a", "b").t
    beta_f = H.el(F.t, "a b").map(S, "b", "b").mul(H.el(H.beta, "a")).merge("a", "b").t

    return QuasiHopfAlgebra(alg, comult, H.counit, phi_f.tensor("a b c"), H.antipode,
                            alpha_f, beta_f, reassoc_inv=phi_f_inv.tensor("a b c"),
                            name=(H.name + "_twisted") if H.name else "")


def gauge_product(H_twisted: QuasiHopfAlgebra, F: GaugeTransformation,
                  F2: GaugeTransformation) -> GaugeTransformation:
    """The composite gauge (F2 computed in the twisted structure) * F."""
    t = multiply(H_twisted.spaces(2), F2.t, F.t)
    inv = multiply(H_twisted.spaces(2), F.inv, F2.inv)
    return GaugeTransformation(F.H, t, inv)


def shared_base(*structures):
    """The base of every one of ``structures`` (each has an ``.H``), or
    MixedBase unless they share one; bases read from separate files
    share one when their structures are equal."""
    base = structures[0].H
    for s in structures[1:]:
        if not base.same_structure(s.H):
            raise MixedBase("inputs are built over different bases")
    return base


def _derived(H, key, build):
    """``build(H)``, built once and cached under ``key`` on the
    (immutable) base H, so every construction over one base shares one
    derived base or element.  ``comodule.check_closed_form_inputs``
    caches its verdicts the same way, on a base and on a comodule
    algebra."""
    cached = H.__dict__.setdefault("_derived", {})
    if key not in cached:
        cached[key] = build(H)
    return cached[key]


VARIANT_KINDS = ("op", "cop", "opcop")


def variant(H, kind: str):
    """Opposite multiplication and/or opposite comultiplication.

    Accepts either a quasi-bialgebra (returns one) or a quasi-Hopf
    algebra (returns one, transforming the antipode data as well).  The
    result is cached on the input, so the reflections of several
    structures over one base share one reflected base.
    """
    if kind not in VARIANT_KINDS:
        raise ShapeMismatch("unknown variant %r" % (kind,))
    return _derived(H, kind, lambda H: _variant(H, kind))


def reflect_pair(kind: str, t: Tensor, t_inv: Tensor):
    """The ``kind`` reflection of a three-leg reassociator and its
    inverse, as ``(t, t_inv)`` of the reflected structure: cop and opcop
    reverse the legs, op and cop trade the reassociator for its inverse.
    Every reflection of a base, a comodule algebra or a bicomodule
    algebra moves its reassociators by this one rule."""
    if kind != "op":
        t, t_inv = switch_legs(t, (2, 1, 0)), switch_legs(t_inv, (2, 1, 0))
    return (t, t_inv) if kind == "opcop" else (t_inv, t)


def _variant(H, kind: str):
    new_alg = H.alg if kind == "cop" else H.alg.opposite()
    comult = H.comult if kind == "op" else H.comult.permute(dst=(1, 0))
    reassoc, reassoc_inv = reflect_pair(kind, H.reassoc, H.reassoc_inv)
    name = (H.name + "^" + kind) if H.name else ""
    if not isinstance(H, QuasiHopfAlgebra):
        return QuasiBialgebra(new_alg, comult, H.counit, reassoc,
                              reassoc_inv=reassoc_inv, name=name)

    # antipode data: S^-1 for op and cop, S itself for opcop
    if kind == "opcop":
        S = H.antipode
        alpha, beta = H.beta, H.alpha
    else:
        S = H.antipode_inv
        alpha, beta = (H.beta, H.alpha) if kind == "op" else (H.alpha, H.beta)
        alpha, beta = (apply_linear_map(S, t, (0,)) for t in (alpha, beta))
    return QuasiHopfAlgebra(new_alg, comult, H.counit, reassoc, S, alpha, beta,
                            reassoc_inv=reassoc_inv, name=name)


def drinfeld_twist(H: QuasiHopfAlgebra) -> GaugeTransformation:
    """The gauge transformation conjugating Delta(S(h)) into
    (S x S)(flip Delta(h)), built from its closed formula.

    The twist and its inverse are cached on the input, and each call
    wraps them in a fresh ``GaugeTransformation``: a cached one would
    refer back to H through ``.H``, a reference cycle that keeps H and
    everything cached on it alive until the cyclic collector runs."""
    t, inv = _derived(H, "drinfeld-twist", _drinfeld_twist)
    return GaugeTransformation(H, t, inv)


def _drinfeld_twist(H: QuasiHopfAlgebra):
    S = H.antipode

    # four-leg combinations of the reassociator and its inverse: x1 x2
    # are the two legs of Delta(x1), and A = (Phi x 1)(Delta x id x id)(Phi^-1),
    # B = (Delta x id x id)(Phi)(Phi^-1 x 1)
    phi_inv_d = H.el(H.reassoc_inv, "x1 x3 x4").map(H.comult, "x1", "x1 x2")
    a4 = H.el(H.reassoc, "x1 x2 x3").mul(phi_inv_d)
    b4 = H.el(H.reassoc, "x1 x3 x4").map(H.comult, "x1", "x1 x2").mul(
        H.el(H.reassoc_inv, "x1 x2 x3"))

    # gamma = S(A1) alpha A4 (x) S(A2) alpha A3, on the legs x1 x2
    gamma = a4.map(S, "x1", "x1").map(S, "x2", "x2")
    gamma = gamma.mul(H.el(H.alpha, "x2")).merge("x2", "x3")
    gamma = gamma.mul(H.el(H.alpha, "x1")).merge("x1", "x4")

    # delta = B1 beta S(B4) (x) B2 beta S(B3), on the legs x1 x2
    delta = b4.map(S, "x3", "x3").map(S, "x4", "x4")
    delta = delta.mul(H.el(H.beta, "x1")).merge("x1", "x4")
    delta = delta.mul(H.el(H.beta, "x2")).merge("x2", "x3")

    # f = (S x S)(flip Delta(x1)) gamma Delta(x2 beta S(x3)):
    # S(x1_2) gamma2 D1 (x) S(x1_1) gamma1 D2
    e = phi_inv_d.map(S, "x1", "x1").map(S, "x2", "x2").map(S, "x4", "x4")
    e = e.mul(H.el(H.beta, "x3")).merge("x3", "x4").map(H.comult, "x3", "d1 d2")
    twist = e.mul(gamma).merge("x2", "d1").merge("x1", "d2")

    # f^-1 = Delta(S(x1) alpha x2) delta (S x S)(flip Delta(x3)):
    # D1 delta1 S(x3_2) (x) D2 delta2 S(x3_1)
    e = H.el(H.reassoc_inv, "x1 x2 x3").map(S, "x1", "x1").mul(H.el(H.alpha, "x1"))
    e = e.merge("x1", "x2").map(H.comult, "x1", "x1 x2").map(H.comult, "x3", "x3 x4")
    e = e.map(S, "x3", "x3").map(S, "x4", "x4").mul(delta)
    twist_inv = e.merge("x1", "x4").merge("x2", "x3")

    return twist.tensor("x2 x1"), twist_inv.tensor("x1 x2")


def tensor_qha(H1: QuasiHopfAlgebra, H2: QuasiHopfAlgebra, name="") -> QuasiHopfAlgebra:
    """Componentwise quasi-Hopf structure on H1 (x) H2.

    Basis pairing is (i, j) -> i * dim2 + j; reassociator legs interleave
    the two reassociators, comultiplication interleaves with the middle
    flip, antipode and alpha/beta are componentwise.
    """
    alg = build_tensor_algebra(H1.alg, H2.alg, name=name)

    def paired(m1: LinMap, m2: LinMap, dst_spaces) -> LinMap:
        return LinMap.from_tensor(interleave(m1.as_tensor(), m2.as_tensor()), 1, dst_spaces)

    comult = paired(H1.comult, H2.comult, (alg, alg))
    counit = paired(H1.counit, H2.counit, ())
    antipode = paired(H1.antipode, H2.antipode, (alg,))
    reassoc = interleave(H1.reassoc, H2.reassoc)
    reassoc_inv = interleave(H1.reassoc_inv, H2.reassoc_inv)
    alpha = interleave(H1.alpha, H2.alpha)
    beta = interleave(H1.beta, H2.beta)
    return QuasiHopfAlgebra(alg, comult, counit, reassoc, antipode, alpha, beta,
                            reassoc_inv=reassoc_inv, name=name)


def op_tensor(H: QuasiHopfAlgebra) -> QuasiHopfAlgebra:
    """H^op (x) H, the base of the one-sided comodule realizations;
    cached on H, so every realization over H shares one square."""
    return _derived(H, "op-tensor", lambda H: tensor_qha(
        variant(H, "op"), H, name=H.name + "^op(x)" + H.name))


def tensor_op(H: QuasiHopfAlgebra) -> QuasiHopfAlgebra:
    """H (x) H^op, the base of the mirrored realizations; cached on H."""
    return _derived(H, "tensor-op", lambda H: tensor_qha(
        H, variant(H, "op"), name=H.name + "(x)" + H.name + "^op"))
