"""The p-torsion certification chain, step by step.

Given an extension satisfying the rank-1-mod-p Frobenius condition whose
p-multiple is trivial, the chain shows every entry of the splitting witness
vanishes mod p by walking the defining equations: diagonal entries first,
then symmetry, then the last column through the faithfulness of the
coefficient lift, then a downward column induction.  Dividing by p yields a
witness for the class itself, one p-digit lower.
"""

import random

from crystal_lab import (ExtensionContext, PrecisionContext,
                         TorsionCertificate, Untrivializable, int_scale,
                         multiply_by_p_injectivity_probe, p_torsion_check,
                         trivialize)
from crystal_lab.extension_group import from_alpha
from crystal_lab.sampling import add_noise, random_witness, witness_support

ctx = PrecisionContext(3, 8, 32)
ectx = ExtensionContext(ctx, 2)
rng = random.Random(99)

print("-- build a geometric class that is nontrivial at full precision --")
e = from_alpha(random_witness(rng, ectx, witness_support(ectx, 5)))
e = add_noise(rng, e.mark_geometric(), "v", ctx.p)
print("trivial at full precision?",
      not isinstance(trivialize(e), Untrivializable))

pe = int_scale(e, ctx.p)
w = trivialize(pe)
print("p times the class is trivial; witness found at N =", w.context.N)

print("\n-- replay the congruence chain --")
cert = p_torsion_check(e, w)
assert isinstance(cert, TorsionCertificate)
for step in cert.trace:
    print(f"  [{'ok' if step.ok else 'XX'}] {step.label:<18} {step.statement}")
print("certified trivial at precision", cert.precision)

print("\n-- the sampled injectivity experiment --")
report = multiply_by_p_injectivity_probe(ectx, n=6, samples=50, seed=7)
print(report.to_json())
report10 = multiply_by_p_injectivity_probe(ectx, n=10, samples=50, seed=7)
print("wider base (noise can survive one multiplication):",
      report10.to_json())
