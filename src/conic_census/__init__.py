"""Exact census of the 800 irreducible conics on the Mukai quartic surface.

The library computes, entirely in exact arithmetic over K = Q(i, sqrt 2,
sqrt 5), the full conic census of the quartic

    x^4 + y^4 + z^4 + w^4 - 6 (x^2 y^2 + x^2 z^2 + x^2 w^2
                               + y^2 z^2 + y^2 w^2 + z^2 w^2) = 0,

its automorphism orbits, the singular fibers of its conic pencil, the
splitting-plane enumerations, the intersection Gram matrix of a spanning
set, and the 16-conic Kummer configuration, and emits re-checkable
certificates for all of it.
"""

__version__ = "0.1.0"
