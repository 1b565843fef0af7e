"""Exact F-crystal calculus over truncated p-adic power-series rings."""

from . import errors, serialize
from .crystal import (ComplementResult, FCrystalPresentation,
                      HorizontalityReport, PairingReport, SlopeMultiset,
                      check_horizontality, check_pairing_compat, direct_sum,
                      hom_crystal, make_standard_crystal, newton_slopes,
                      orthogonal_complement)
from .extension_group import (ExtensionContext, ExtensionData, Refuted,
                              TorsionCertificate, TraceStep,
                              TrivializationWitness, Untrivializable,
                              assemble_crystal, baer_sum, from_alpha,
                              int_scale, p_torsion_check, trivialize)
from .moduli import (DeformationPoint, GroupLawReport, ProbeReport,
                     SlopeReport, add_points, group_law_check, identity_point,
                     multiply_by_p_injectivity_probe, negate_point,
                     point_from_tangent, random_geometric_point, scale_point,
                     slope_report, tangent_coordinates, truncate_point)
from .padic_series import (OneForm, PrecisionContext, TruncatedSeries,
                           derivative, frobenius_pullback, integrate,
                           oneform_pullback)
from .series_matrix import SeriesMatrix

__version__ = "0.1.0"

__all__ = [
    "ComplementResult", "DeformationPoint", "ExtensionContext",
    "ExtensionData", "FCrystalPresentation", "GroupLawReport",
    "HorizontalityReport", "OneForm", "PairingReport", "PrecisionContext",
    "ProbeReport", "Refuted", "SeriesMatrix", "SlopeMultiset",
    "SlopeReport", "TorsionCertificate", "TraceStep",
    "TrivializationWitness", "TruncatedSeries", "Untrivializable",
    "add_points", "assemble_crystal", "baer_sum", "check_horizontality",
    "check_pairing_compat", "derivative", "direct_sum", "errors",
    "from_alpha", "frobenius_pullback", "group_law_check", "hom_crystal",
    "identity_point", "int_scale", "integrate", "make_standard_crystal",
    "multiply_by_p_injectivity_probe", "negate_point", "newton_slopes",
    "oneform_pullback", "orthogonal_complement", "p_torsion_check",
    "point_from_tangent", "random_geometric_point", "scale_point",
    "slope_report", "tangent_coordinates", "trivialize", "truncate_point",
]
