"""The lattice-quotient enumerators as ratho had them, one per family.

These are the earlier enumeration-and-keying loops of line_quotient and
twisted_ku_quotient, kept without their certification.  The line loop
takes every lattice combination of a cocycle basis and keys it by its
cohomology class; the twisted loop solves d F_k = H * F_(k-2) by name
arithmetic, verifies each datum, and keys it by its lift into the family's
algebra.  Tests compare the classes of the one level loop that replaced
them (character._lattice_classes) against these: keys in order, member
images, and refusal messages.
"""

import itertools
from fractions import Fraction

from ratho.character import (FlatFormDatum, TwistedFlatFormDatum, _family,
                             _lift, line_datum, twisted_ku_bundle,
                             verify_flat, verify_twisted_flat)
from ratho.dgca import _slices


def line_classes(omega, n, lattice, polybound=None):
    """Class key -> member forms, in first-seen order."""
    lattice = [Fraction(v) for v in lattice]
    family = _family(line_datum(omega, n, omega.zero()), polybound)
    cx, k = family.complex, family.grade
    h = cx.homology(k)
    classes = {}
    for combo in itertools.product(lattice, repeat=len(h.kernel)):
        p = cx.combine(k, combo, h.kernel)
        classes.setdefault(cx.class_key(k, p), []).append(p)
    return classes


def twisted_classes(omega, twist_form, lattice, kmax=4):
    """Class key -> member data, in first-seen order."""
    lattice = [Fraction(v) for v in lattice]
    bundle = twisted_ku_bundle(kmax)
    twist = FlatFormDatum(bundle.base, omega, {"h3": twist_form})
    if not verify_flat(twist).passed:
        raise ValueError("twist must be closed")
    family = _family(TwistedFlatFormDatum(bundle, twist, {
        "h3": twist_form, **dict.fromkeys(bundle.new_names, omega.zero())}))
    slices = _slices(omega, None)
    partial = [{}]
    for name in bundle.new_names:
        deg = bundle.total.gens.degree_of(name)
        closed = slices.kernel(deg)
        grown = []
        for images in partial:
            particular = omega.zero()
            if deg > 1:
                source = twist_form * images["f%d" % (deg - 2)]
                if not source.is_zero():
                    particular = slices.primitive(deg + 1, source)
            if particular is None:
                raise ValueError(
                    "lattice datum admits no flat extension at level %d"
                    % deg)
            for combo in itertools.product(lattice, repeat=len(closed)):
                grown.append({**images, name: particular + slices.combine(
                    deg, combo, closed)})
        partial = grown
    classes = {}
    for images in partial:
        datum = TwistedFlatFormDatum(bundle, twist,
                                     {**images, "h3": twist_form})
        if not verify_twisted_flat(datum).passed:
            raise RuntimeError("enumerated datum failed verification")
        key = family.complex.class_key(family.grade,
                                       _lift(family, datum.image))
        classes.setdefault(key, []).append(datum)
    return classes
