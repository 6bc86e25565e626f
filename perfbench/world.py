"""The seeded reference world and the samples every workload draws.

All inputs derive from the ``--seed``: the references (40 species in 10
genera, 5 kb genomes, CAMI-M shaped), and each sample's species subset,
log-normal (sigma 1, CAMI-M) abundances and simulated reads.  Ground
truth stays here; the program under test only ever sees read sequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.sequences.generator import ReferenceCollection
from repro.sequences.reads import Read, ReadSimulator
from repro.workloads.cami import CamiDiversity, make_cami_sample

N_GENERA = 10
SPECIES_PER_GENUS = 4
GENOME_LENGTH = 5000
READ_LENGTH = 100
ERROR_RATE = 0.005
ABUNDANCE_SIGMA = 1.0
INDEX_K = 20


@dataclass
class Sample:
    """One generated sample: its read sequences and the truth behind them."""

    sequences: List[str]
    truth: Dict[int, float]


def references(seed: int) -> ReferenceCollection:
    return make_cami_sample(
        CamiDiversity.MEDIUM, n_reads=0, n_genera=N_GENERA,
        species_per_genus=SPECIES_PER_GENUS, genome_length=GENOME_LENGTH,
        seed=seed,
    ).references


class SampleSource:
    """Seeded sample stream over one reference world (substream per use)."""

    def __init__(self, refs: ReferenceCollection, seed: int, stream: int):
        self.refs = refs
        self.species = refs.species_taxids
        self._rng = np.random.default_rng([seed, stream])

    def draw(self, n_reads: int, size: int = 0,
             species: Sequence[int] = ()) -> Sample:
        """A sample over ``species`` if given, else ``size`` random ones."""
        if species:
            present = sorted(int(t) for t in species)
        else:
            present = sorted(int(t) for t in self._rng.choice(
                self.species, size=size, replace=False))
        weights = self._rng.lognormal(0.0, ABUNDANCE_SIGMA, len(present))
        total = float(weights.sum())
        truth = {t: float(w) / total for t, w in zip(present, weights)}
        simulator = ReadSimulator(READ_LENGTH, ERROR_RATE,
                                  seed=int(self._rng.integers(2**31)))
        reads = simulator.simulate(self.refs, truth, n_reads)
        return Sample([read.sequence for read in reads], truth)

    def covering(self, n_reads: int, per_sample: int) -> List[Sample]:
        """Samples that together contain every species once."""
        order = [int(t) for t in self._rng.permutation(self.species)]
        return [self.draw(n_reads, species=order[i:i + per_sample])
                for i in range(0, len(order), per_sample)]

    def stratified(self, count: int, n_reads: int, min_species: int,
                   max_species: int) -> List[Sample]:
        """``count`` samples whose species counts cycle through
        ``min_species..max_species`` and whose species are dealt from
        shuffled decks of all species, so every run draws the same mix of
        sample sizes with each species about equally often; the seed
        picks which species meet in a sample, the abundances and reads."""
        sizes = range(min_species, max_species + 1)
        deck: List[int] = []
        samples = []
        for i in range(count):
            size = sizes[i % len(sizes)]
            if len(deck) < size:
                deck += [int(t) for t in self._rng.permutation(self.species)
                         if int(t) not in deck]
            samples.append(self.draw(n_reads, species=deck[:size]))
            del deck[:size]
        return samples


def as_reads(sequences: Sequence[str]) -> List[Read]:
    """Read objects the way the serving tiers build them from a request."""
    return [Read(read_id=i, sequence=seq, true_taxid=0)
            for i, seq in enumerate(sequences)]


def accuracy(samples: Sequence[Sample], results: Sequence[dict]) -> Dict[str, float]:
    """Mean species F1 and abundance L1 against ground truth (paper §5).

    ``results`` are wire-layout dicts (``candidates``, ``profile`` keyed by
    taxid string).  A species is called present when its profile fraction
    is positive.
    """
    from repro.taxonomy.metrics import f1_score, l1_norm_error

    f1s, l1s, precisions = [], [], []
    for sample, result in zip(samples, results):
        profile = {int(t): f for t, f in result["profile"].items()}
        called = {t for t, f in profile.items() if f > 0}
        f1s.append(f1_score(called, set(sample.truth)))
        l1s.append(l1_norm_error(profile, sample.truth))
        candidates = result["candidates"]
        if candidates:
            precisions.append(
                len(set(candidates) & set(sample.truth)) / len(candidates))
    return {
        "species_f1": float(np.mean(f1s)),
        "abundance_l1": float(np.mean(l1s)),
        "candidate_precision": float(np.mean(precisions)) if precisions else 0.0,
    }
