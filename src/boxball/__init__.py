"""Box-ball systems on rectangular-tableau crystals.

Core pieces: semi-standard tableaux and row insertion, Kashiwara operators
via the signature rule, the combinatorial R with its energy function, carrier
time evolution with conserved quantities, and soliton scattering.
"""

from .bbs import (
    BbsState,
    CarrierError,
    CarrierTrace,
    conserved_tableaux,
    energy_e,
    evolve,
    format_state,
    format_trajectory,
    parse_state,
    parse_trajectory,
    soliton_spectrum,
    state_to_tensor,
    vacuum_block,
    vacuum_column,
    window_word,
)
from .crystal import CrystalTensor, sp, unsplit
from .insertion import (
    insert_word,
    knuth_equivalent,
    outer_corners,
    rectify,
    uninsert,
)
from .rmatrix import (
    RMatrixError,
    RResult,
    apply_r,
    energy_h,
    insertion_product,
    oracle_r,
    yang_baxter_holds,
)
from .soliton import (
    ExperimentResult,
    Soliton,
    SolitonConfig,
    SolitonDetectionError,
    VacuumAlphabet,
    detect,
    encode,
    highest_weight_two_soliton,
    phase_adjust,
    predict_final,
    predict_two_body,
    run_experiment,
    scattering_yang_baxter,
)
from .tableau import (
    SemiStandardTableau,
    Shape,
    TableauError,
    Word,
    enumerate_tableaux,
    restrict,
)

__version__ = "0.1.0"
