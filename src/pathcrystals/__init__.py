"""Exact crystals of piecewise-linear paths for finite root systems.

Littelmann path models with exact rational arithmetic, partial
Schutzenberger-Lusztig involutions and the cactus-group action they define,
and Dynkin-diagram folding with virtualization of path models, together with
exhaustive verifiers for the structural identities relating them.
"""

from .cactus import (
    act,
    theta_image,
    verify_cactus_relations,
    xi,
    xi_perm,
)
from .cartan import (
    DynkinType,
    all_nodes,
    cartan_matrix,
    components,
    connected_subdiagrams,
    is_connected,
    longest_word,
    positive_roots,
    reflect,
    simple_root,
    symmetrizer,
    theta,
    w0J_apply,
    weyl_dim,
)
from .crystal import (
    CrystalGraph,
    LeviView,
    export_dot,
    export_json,
    generate,
    levi,
    verify_seminormal,
)
from .errors import (
    ConfigurationError,
    DomainError,
    ModelIntegrityError,
    NotInImageError,
)
from .folding import (
    FoldingPair,
    devirtualize,
    fold_info,
    folding_pair,
    psi_weight,
    s_tilde,
    verify_commutative_diagram,
    verify_component_identity,
    verify_virtual_relations,
    verify_virtualization,
    virtual_e,
    virtual_f,
    virtualize_path,
)
from .paths import (
    PLPath,
    canonicalize,
    epsilon,
    path_from_json,
    path_to_json,
    paths_equal,
    phi,
    root_e,
    root_f,
    straight_path,
    weight_int,
)

__version__ = "0.1.0"
