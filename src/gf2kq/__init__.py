"""gf2kq: quantum circuit synthesis for GF(2^n) multiplication.

Compiles binary-field multiplication into CNOT+CCZ/Toffoli circuits with a
subquadratic CCZ count, in compact, linear-depth, and log-depth variants,
with classical oracles, reversible simulation, and a benchmark harness.
"""

from .circuit import Circuit, Gate, RegisterLayout, ResourceReport, compute_depth, inverse
from .errors import (
    CatalogError,
    FormError,
    Gf2kqError,
    InputError,
    NetlistParseError,
    SimulationError,
    SynthesisError,
    UnsupportedFamilyError,
)
from .gf2 import (
    BinaryPolynomial,
    Gf2Matrix,
    build_reduction_matrix,
    is_irreducible,
    mastrovito_product,
    mastrovito_vectors,
    poly_mul_mod,
    transpose_apply,
)
from .netlist import emit_netlist, parse_netlist
from .phasepoly import (
    CubicPhasePolynomial,
    LinearWireState,
    check_split_identities,
    check_halving_identity,
    check_padding_identity,
    extract_phase,
    substitute_cprime,
    target_polynomial,
)
from .simulate import (
    VerificationReport,
    simulate,
    to_toffoli_form,
    verify_multiplier,
)
from .synth import (
    SynthesisOptions,
    ccz_count,
    ccz_count_bound,
    cnot_ladder,
    cprime_ancilla_circuit,
    karatsuba_core,
    prepare_parallel,
    prepare_second,
    reduction_cnot_equally_spaced,
    reduction_cnot_trinomial,
    synth,
    synth_baseline,
)

__version__ = "0.1.0"
