"""Systolic invariants of toric boundary flows and disk-map suspensions."""

from .errors import (CoverageError, NumericalError, ReebsysError,
                     ResolutionError, StatisticalError, ValidationError)
from .profiles import (EllipsoidProfile, LpProfile, SplineProfile,
                       ToricProfile, profile_from_json, round_profile)
from .systolic import (AxisOrbit, RationalTorus, SystolicReport, axis_orbit,
                       average_identity_residual, contact_volume,
                       enumerate_tori, pairing_orbit_orbit,
                       systolic_interval, witness_measure)
from .flows import (OrbitSet, approximate_liouville_by_orbits,
                    liouville_sample)
from .topology import (ClosedCurve, SeifertSurfaceSpec,
                       action_linking_verify, axis_disk, linking_number,
                       toric_orbit_curve)
from .diskmap import (PeriodicPoint, RadialHamiltonian, action, calabi,
                      flow_map, hamiltonian_from_json,
                      mean_action_theorem_check, periodic_points,
                      suspension_dictionary)

__version__ = "0.1.0"
