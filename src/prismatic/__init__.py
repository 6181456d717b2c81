"""de Bruijn colorings of polyominoes: construct, verify, enumerate."""

from .cock import CockParams, all_params, cock_construct, cock_count, cock_locate
from .debruijn import (
    DeBruijnSequence,
    acyclic_from_cyclic,
    count_acyclic,
    count_cyclic,
    enumerate_all_cyclic,
    generate_cyclic,
    is_acyclic_debruijn,
    is_cyclic_debruijn,
)
from .formats import ascii_render, colored_from_json, parse_json, to_json
from .lattice import (
    Cell,
    ColoredPolyomino,
    DisconnectedError,
    EmptySetError,
    PickQuantities,
    Polyomino,
    apply_lattice_map,
    instance_cells,
    instances_of,
    is_connected,
    normalize,
    pick_quantities,
    random_polyomino,
)
from .search import (
    BudgetExceededError,
    InstanceGraph,
    VerifyResult,
    bijection_check,
    enumerate_prismatic_colorings,
    has_prismatic_coloring,
    instance_graph,
    is_debruijn_coloring,
    min_size_with_instances,
    shape_census,
    transport_coloring,
)
from .shapes import (
    ELL,
    LTROMINO,
    SQUARE,
    TEE,
    ZEE,
    pattern_from_name,
    pyramid,
    pyramid_trimmed,
    rectangle,
    straight,
    ziggurat,
)
