"""Finite diagram categories, strict Segal and Bousfield condition checkers,
equivalences with abelian monoids / groups / group-equivariant monoids, and
desk-scale classifying-space homology verification."""

__version__ = "0.1.0"

from .algebra import (FinAbGroup, FinAbMonoid, FiniteGroup, GMonoid, cyclic,
                      cyclic_group, direct_product, enumerate_abelian_groups,
                      enumerate_abelian_monoids, inversion_action, klein_four,
                      max_monoid, monoid_isomorphic, swap_action,
                      trivial_action, trivial_group, trivial_monoid)
from .classifying import (BarSpace, DeloopingReport, StructureMapResult, bar,
                          delooping_report, expected_em_homology,
                          g_action_on_bar, iterate_bar, structure_map)
from .gammacat import (DeltaMap, GammaMap, GammaOpMap, SmashObject,
                       bousfield_family, compose, delta_to_gamma, fold_map,
                       from_power_set_form, identity, segal_family, smash,
                       smash_morphisms, to_power_set_form)
from .ggamma import GGammaMap, diag_inclusion, projection
# the homology function itself stays under gammaspaces.homology to avoid
# shadowing the submodule name
from .homology import (ChainComplex, HomologyGroup, InducedMap,
                       induced_map_on_homology, normalized_chain_complex,
                       smith_normal_form)
from .presheaves import (CheckReport, TruncatedGammaSet,
                         build_gamma_set, build_ggamma_set,
                         check_strict_bousfield, check_strict_segal,
                         extract_g_group_bousfield, extract_g_monoid,
                         extract_group_bousfield, extract_monoid,
                         presheaf_from_json, presheaf_to_json)
from .simplicial import (SimplicialMap, TruncatedSimplicialSet, point,
                         skeleton, suspension, validate)
