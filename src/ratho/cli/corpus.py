"""Built-in model corpus.

Each entry ships as a model file under data/ and carries a provenance
citation.
"""

from importlib import resources

from .parser import parse

_SULLIVAN = ("D. Sullivan, Infinitesimal computations in topology, "
             "Publ. Math. IHES 47 (1977) 269-331")
_FHT = ("Y. Felix, S. Halperin, J.-C. Thomas, Rational Homotopy Theory, "
        "Springer GTM 205 (2001)")
_EM = ("S. Eilenberg, S. MacLane, On the groups H(Pi,n) I, "
       "Ann. of Math. 58 (1953) 55-106")
_CE = ("C. Chevalley, S. Eilenberg, Cohomology theory of Lie groups and "
       "Lie algebras, Trans. Amer. Math. Soc. 63 (1948) 85-124")

_ENTRIES = [
    {"name": "s2", "description": "minimal model of the 2-sphere",
     "citation": _SULLIVAN},
    {"name": "s3", "description": "minimal model of the 3-sphere",
     "citation": _SULLIVAN},
    {"name": "s4", "description": "minimal model of the 4-sphere",
     "citation": _SULLIVAN},
    {"name": "s5", "description": "minimal model of the 5-sphere",
     "citation": _SULLIVAN},
    {"name": "cp1", "description": "minimal model of CP^1",
     "citation": _FHT},
    {"name": "cp2", "description": "minimal model of CP^2",
     "citation": _FHT},
    {"name": "cp3", "description": "minimal model of CP^3",
     "citation": _FHT},
    {"name": "su2",
     "description": "Chevalley-Eilenberg algebra of su(2)",
     "citation": _CE},
    {"name": "heis3",
     "description": "Chevalley-Eilenberg algebra of the Heisenberg algebra",
     "citation": ("K. Nomizu, On the cohomology of compact homogeneous "
                  "spaces of nilpotent Lie groups, Ann. of Math. 59 (1954) "
                  "531-538")},
    {"name": "string_su2",
     "description": "su(2) extended by a degree-2 generator killing the "
                    "Cartan 3-cocycle",
     "citation": ("J. Baez, A. Crans, Higher-dimensional algebra VI: "
                  "Lie 2-algebras, Theory Appl. Categ. 12 (2004) 492-538")},
    {"name": "ku1",
     "description": "one closed generator in each odd degree through 9",
     "citation": ("R. Bott, The stable homotopy of the classical groups, "
                  "Ann. of Math. 70 (1959) 313-337")},
    {"name": "ku1_h3",
     "description": "the odd tower with differentials shifted by a "
                    "degree-3 generator",
     "citation": ("M. Atiyah, G. Segal, Twisted K-theory and cohomology, "
                  "Nankai Tracts Math. 11 (2006) 5-43")},
    {"name": "sp2inv",
     "description": "invariant polynomials of sp(2)",
     "citation": ("A. Borel, Sur la cohomologie des espaces fibres "
                  "principaux et des espaces homogenes de groupes de Lie "
                  "compacts, Ann. of Math. 57 (1953) 115-207")},
    {"name": "twistor",
     "description": "relative model of the twistor fibration over the "
                    "sp(2) invariants",
     "citation": ("M. Atiyah, N. Hitchin, I. Singer, Self-duality in "
                  "four-dimensional Riemannian geometry, Proc. Roy. Soc. "
                  "London A 362 (1978) 425-461")},
    {"name": "t3",
     "description": "exterior algebra on three degree-1 generators; "
                    "the 3-torus",
     "citation": _CE},
    {"name": "interval",
     "description": "polynomial forms on the 1-simplex",
     "citation": _SULLIVAN},
]
_ENTRIES += [
    {"name": "line%d" % n,
     "description": "one closed generator in degree %d; models K(R, %d)"
                    % (n + 1, n + 1),
     "citation": _EM}
    for n in range(9)
]

_BY_NAME = {e["name"]: e for e in _ENTRIES}


def names():
    return [e["name"] for e in _ENTRIES]


def entry(name):
    if name not in _BY_NAME:
        raise ValueError("no corpus entry named %r" % name)
    return _BY_NAME[name]


def text(name):
    entry(name)
    path = resources.files("ratho.cli") / "data" / (name + ".dgca")
    return path.read_text()


def load(name):
    return parse(text(name))


def algebra(name):
    _, A = load(name).first_algebra()
    return A
