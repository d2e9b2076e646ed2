"""Construction and finite-depth analysis of Toeplitz-type symbolic words.

Build bi-infinite words by hole-filling, inspect their period and hole
structure, track the associated residue tower and its boundary
approximation, push words through sliding block codes, and count
subwords.  All verdicts are certified-at-depth: nothing about the limit
object is claimed without either an exhaustive finite check or a
declared structural reason that is itself re-checked.
"""

from .words import (
    HOLE,
    Alphabet,
    BINARY,
    FillingSchedule,
    PeriodicPattern,
    SeedWord,
    compose_fill,
    derived_tail,
    evaluate,
    parse_seed,
    resolve_window,
    schedule_from_text,
    schedule_to_text,
)
from .periodicity import (
    OxtobyVerdict,
    PeriodStructureCertificate,
    ResidueClasses,
    aperiodic_residues,
    check_oxtoby,
    classify_residues,
    hole_block_counts,
    min_hole_gap,
    periodic_density,
    verify_period_structure,
)
from .odometer import (
    OdometerPoint,
    branch_point,
    embed,
    phi_prefix,
    rotate,
)
from .boundary import (
    HoleTree,
    IsolationKind,
    IsolationVerdict,
    PropertyVerdicts,
    Verdict,
    VerdictKind,
    hole_tree,
    isolated_value_pair,
    oxtoby_no_isolation_check,
    property_verdicts,
    pruned_branch_census,
)
from .factors import (
    FactorResidues,
    ResidueSearchCertificate,
    SlidingBlockCode,
    apply_code,
    build_isolating_code,
    code_from_text,
    code_to_text,
    factor_aperiodic_residues,
    factor_obstruction_check,
    factor_residues,
    unique_residue_search,
)
from .elements import (
    ElementSpec,
    PairReport,
    Shift,
    ShiftLimit,
    branch_rule,
    eval_element,
    fiber_block_contents,
    fiber_prefix_count,
    finite_fiber_nonasymptotic_witness,
    pair_report,
)
from .complexity import (
    FactorSet,
    complexity_profile,
    factor_set_exact_single_hole,
    factor_set_window,
)
from .gallery import GALLERY_NAMES, de_bruijn, gallery, gallery_code, proximal_shift_pair

__version__ = "0.1.0"
