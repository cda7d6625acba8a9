"""Large (3,2)-Motzkin paths, noncrossing linked partitions, and the
bijections between them, with exact counting and exhaustive generators.

The lattice paths use three level colors and two down colors, written
``U a b c x y``; the large variant bans the third level color on the
x-axis.  Partitions of {1,...,n} are stored as arc sets where every
vertex has at most one incoming arc and no two arcs cross.  The central
map sends a large path of length n to such a partition on n+1 vertices;
a second map doubles plain colored Motzkin paths onto large ones 2-to-1.
"""

from .bijection import (
    CaseTag,
    StructureError,
    classify_component,
    partition_to_path,
    path_to_partition,
)
from .counting import (
    IdentityCheck,
    IdentityReport,
    SequenceTable,
    large_motzkin_numbers,
    motzkin32_numbers,
    ncl_counts,
    schroder_numbers,
    verify_identities,
)
from .doubling import double, project
from .enumerate import gen_large, gen_motzkin32, gen_ncl, gen_schroder
from .structures import (
    Arc,
    AxisF,
    AxisL3,
    BlockCrossing,
    CrossingArcs,
    InDegree,
    LargeMotzkinPath,
    LinkedPartition,
    MotzkinPath,
    NearlyDisjointViolation,
    NegativeHeight,
    NonzeroFinalHeight,
    ParseError,
    PartitionError,
    PathError,
    SchroderPath,
    blocks_of,
    parse_partition,
    render_ascii,
    render_partition,
    validate_large,
    validate_motzkin,
    validate_ncl,
    validate_ncl_blockwise,
    validate_schroder,
)

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "AxisF",
    "AxisL3",
    "BlockCrossing",
    "CaseTag",
    "CrossingArcs",
    "IdentityCheck",
    "IdentityReport",
    "InDegree",
    "LargeMotzkinPath",
    "LinkedPartition",
    "MotzkinPath",
    "NearlyDisjointViolation",
    "NegativeHeight",
    "NonzeroFinalHeight",
    "ParseError",
    "PartitionError",
    "PathError",
    "SchroderPath",
    "SequenceTable",
    "StructureError",
    "blocks_of",
    "classify_component",
    "double",
    "gen_large",
    "gen_motzkin32",
    "gen_ncl",
    "gen_schroder",
    "large_motzkin_numbers",
    "motzkin32_numbers",
    "ncl_counts",
    "parse_partition",
    "partition_to_path",
    "path_to_partition",
    "project",
    "render_ascii",
    "render_partition",
    "schroder_numbers",
    "validate_large",
    "validate_motzkin",
    "validate_ncl",
    "validate_ncl_blockwise",
    "validate_schroder",
    "verify_identities",
]
