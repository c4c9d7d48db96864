"""Numerical geometry of hyperbolic adjoint orbits of SL(n, R).

Orbits through weakly decreasing traceless diagonal matrices are ruled
vector bundles over their compact flag orbits.  This package realizes
the bundle identification with the cotangent bundle, evaluates the
Kirillov-Kostant-Souriau form and the transported Liouville form, and
checks their equality together with every supporting identity through
seeded verification suites and a command-line runner.
"""

from .numerics import (
    SingularInput,
    central_diff,
    char_poly,
    commutator,
    mat_exp,
    qr_positive,
)
from .model import (
    ChamberElement,
    NotInChamber,
    SpecialLinearModel,
    random_combination,
    split_kan,
)
from .iwasawa import (
    InfinitesimalIwasawa,
    IwasawaFactors,
    fd_iwasawa_velocities,
    infinitesimal_iwasawa,
    iwasawa,
)
from .orbit import (
    CotangentRep,
    DegenerateChart,
    FiberResidual,
    NotOrthogonal,
    NotTangent,
    OrbitChart,
    OrbitPoint,
    TangentVector,
    cotangent_rep,
    flag_point,
    from_cotangent,
    orbit_chart,
    orbit_point,
    project_ruling,
    solve_generator,
    tangent_vector,
    to_cotangent,
)
from .symplectic import (
    graph_routes,
    iwasawa_potential,
    kks,
    omega_kks_chart,
    omega_std_chart,
    section_one_form,
    tautological,
)
from .suites import (
    SUITE_NAMES,
    VerificationReport,
    run_suite,
)

__version__ = "0.1.0"
