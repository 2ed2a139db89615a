"""Quaternionic Hamiltonian rigid-body dynamics.

Layers, bottom up: exact quaternion algebra (:mod:`qhdyn.quaternion`), the
maps between unit quaternions and SO(3) (:mod:`qhdyn.so3`), evaluable Poisson
structure tensors with Jacobi and Poisson-map verifiers (:mod:`qhdyn.poisson`),
the rigid-body Hamiltonian and its algebraic equations of motion with an RK4
integrator (:mod:`qhdyn.dynamics`), randomized verification suites
(:mod:`qhdyn.verify`) and the command-line front end (:mod:`qhdyn.cli`).
"""

from .errors import (
    ChartError,
    ConfigError,
    DomainError,
    GeometryError,
    IntegrationAborted,
    PreconditionError,
    QhdynError,
)
from .quaternion import (
    Quaternion,
    TOL_UNIT,
    axis_angle_to_quat,
    quat_conj,
    quat_inverse,
    quat_mul,
    quat_norm,
    quat_normalize,
    right_action_matrix,
    rotate_vector,
)
from .so3 import (
    Ad,
    TOL_ORTH,
    ad,
    ad_star,
    hat,
    matrix_to_quat,
    maurer_cartan_residual,
    quat_to_matrix,
    require_rotation,
    vee,
)
from .poisson import (
    Chart,
    DynamicVariable,
    PhasePoint,
    StructureTensor,
    coordinate,
    hamiltonian_vector_field,
    jacobi_residual,
    liouville_form_eval,
    momentum_along,
    poisson_bracket,
    poisson_map_residual,
    right_translation_covariance_check,
    rotation_entry_variable,
    structure_tensor,
    symplectic_form_eval,
)
from .dynamics import (
    BodyParams,
    InertiaTensor,
    MonitorRecord,
    PotentialSpec,
    RenormPolicy,
    Trajectory,
    angular_velocity,
    conserved_quantities,
    eom_rhs,
    free,
    hamiltonian_eval,
    hamiltonian_variable,
    harmonic,
    heavy_top,
    integrate,
    linear_gravity,
    rk4_step,
    spin_kinetic,
)

__version__ = "0.1.0"


def __getattr__(name: str):  # qhdyn.verify loads on first use: import qhdyn.cli leaves it out
    if name == "verify":
        import importlib
        return importlib.import_module(".verify", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
