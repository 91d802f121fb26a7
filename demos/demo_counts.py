"""Coincidence-count statistics: synthesize, ingest, and propagate errors.

Sampling the Born distribution of a noisy cluster state per tomographic
setting gives count records like the experiment's; the witness bound and
its error bar, one multinomial variance per record, covariance included,
are then recovered from the counts alone.
"""

import numpy as np

from clustersim import (
    NoiseSpec,
    apply_noise,
    born_distribution,
    build_b4,
    cluster4,
    parse_counts,
    probabilities,
    required_settings,
    sample_counts,
    serialize_counts,
    witness_from_counts,
)
from clustersim.counts import outcome_string

c4 = cluster4()
setting = required_settings(build_b4())[0]

print(f"Ideal coincidence probabilities for setting {setting.bases}:")
probs = born_distribution(c4, setting)
for i in np.nonzero(probs > 1e-12)[0]:
    print(f"  {outcome_string(setting, i)}: {probs[i]:.3f}")

print("\nSampling 100000 events per setting from a p=0.86 white-noise state:")
rho = apply_noise(c4, NoiseSpec("white", 0.86))
records = [
    sample_counts(rho, s, 100_000, seed=7 + i)
    for i, s in enumerate(required_settings(build_b4()))
]
bound, sigma = witness_from_counts(records, build_b4())
print(f"  four-setting bound from counts: {bound:.4f} +/- {sigma:.4f}  (true value 0.86)")

print("\nCSV round trip:")
text = serialize_counts(records)
again = parse_counts(text)
print(f"  serialized {len(text.splitlines())} lines, parsed {len(again)} records")
print(f"  first record frequencies sum to {probabilities(again[0]).sum():.1f}")
