"""Statevector simulation of a quantum block cipher.

Blocks of classical bits are encoded as basis states and scrambled by a
keyed circuit of self-inverse rotations and CNOTs; two chaining modes
extend the block cipher to multi-block messages, and the analysis and
adversary modules quantify confusion, diffusion, keyspace size, and
intercept-resend detection.
"""

from .adversary import (
    AttackReport,
    ConfigCountBounds,
    brute_force_key_recovery,
    collision_probability,
    config_count_bounds,
    detection_experiment,
    folded_angle,
    marginal_estimation_attack,
)
from .analysis import (
    ConfusionReport,
    DependenceMatrix,
    DependenceRuleReport,
    DiffusionProfile,
    confusion_check,
    diffusion_profile,
    numeric_dependence_matrix,
    parity_dependences,
    symbolic_dependences,
    verify_dependence_rules,
)
from .cipher import (
    CipherBlock,
    GateCounts,
    PlainBlock,
    cipherblock_from_json,
    cipherblock_to_json,
    decrypt_block,
    encrypt_block,
    gate_count,
    xor_bits,
)
from .errors import (
    CipherError,
    InputError,
    IntegrityError,
    InvalidKeyError,
    ResourceError,
)
from .keyschedule import (
    CipherKey,
    Cnot,
    CompiledCircuit,
    GateOp,
    SingleU,
    compile_circuit,
    enumerate_keys,
    generate_key,
    key_circuit,
    key_from_json,
    key_to_json,
    keyspace_size,
    theta_value,
)
from .modes import (
    Mode,
    ModeConfig,
    Transmission,
    decrypt,
    encrypt,
    mode1_decrypt,
    mode1_encrypt,
    mode2_decrypt,
    mode2_encrypt,
    transmission_from_json,
    transmission_to_json,
)
from .statevector import (
    MAX_QUBITS,
    MeasurementOutcome,
    StateVector,
    apply_cnot,
    apply_single,
    basis_state,
    fidelity,
    marginals,
    measure_all,
    state_from_json,
    state_to_json,
    tensor,
)

__version__ = "0.1.0"
