"""Seeded synthetic inputs for the ``assembly`` workload.

Generated by the benchmark, outside the program and outside any timed
region, so a change to the program's own data generators cannot change
what the benchmark measures. The shape follows the paper's input: each
reference protein is the origin of several overlapping, lightly mutated
transcript fragments (some on the minus strand), which BLASTX must map
back to their protein and blast2cap3 must merge per protein cluster.

The seed changes the content, not the amount of work: every protein has
the same length and the same amino-acid composition (in a seeded order),
and every gene yields one fragment per entry of ``fractions`` with fixed
UTR lengths, so the database, the query set and the BLASTX seed-hit
count are the same size on every seed. Residue order, fragment
positions, strands and substitution errors are what the seed draws.

The standard library alone is used, and the same seed always writes the
same bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

AMINO_ACIDS = "ACDEFGHIKLMNPQRSTVWY"

CODONS = {
    "A": ("GCT", "GCC", "GCA", "GCG"),
    "C": ("TGT", "TGC"),
    "D": ("GAT", "GAC"),
    "E": ("GAA", "GAG"),
    "F": ("TTT", "TTC"),
    "G": ("GGT", "GGC", "GGA", "GGG"),
    "H": ("CAT", "CAC"),
    "I": ("ATT", "ATC", "ATA"),
    "K": ("AAA", "AAG"),
    "L": ("TTA", "TTG", "CTT", "CTC", "CTA", "CTG"),
    "M": ("ATG",),
    "N": ("AAT", "AAC"),
    "P": ("CCT", "CCC", "CCA", "CCG"),
    "Q": ("CAA", "CAG"),
    "R": ("CGT", "CGC", "CGA", "CGG", "AGA", "AGG"),
    "S": ("TCT", "TCC", "TCA", "TCG", "AGT", "AGC"),
    "T": ("ACT", "ACC", "ACA", "ACG"),
    "V": ("GTT", "GTC", "GTA", "GTG"),
    "W": ("TGG",),
    "Y": ("TAT", "TAC"),
}

_COMPLEMENT = str.maketrans("ACGT", "TGCA")

PROTEINS_FILE = "proteins.fasta"
TRANSCRIPTS_FILE = "transcripts.fasta"
ORIGIN_FILE = "origin.json"


def _write_fasta(path: Path, records: list[tuple[str, str]]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for rid, seq in records:
            fh.write(f">{rid}\n")
            for i in range(0, len(seq), 60):
                fh.write(seq[i:i + 60] + "\n")


def generate_assembly_inputs(
    out_dir: Path,
    *,
    seed: int,
    proteins: int,
    length: int,
    fractions: tuple[float, ...],
    utr: int = 15,
    error_rate: float = 0.003,
    reverse_fraction: float = 0.2,
) -> dict[str, str]:
    """Write proteins, transcripts and the transcript -> protein truth.

    Returns the written paths by role.
    """
    rng = random.Random(f"perfbench-assembly-{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    protein_records: list[tuple[str, str]] = []
    transcripts: list[tuple[str, str]] = []
    origin: dict[str, str] = {}
    for i in range(proteins):
        pid = f"prot{i:05d}"
        residues = [AMINO_ACIDS[k % len(AMINO_ACIDS)] for k in range(length - 1)]
        rng.shuffle(residues)
        protein = "M" + "".join(residues)
        protein_records.append((pid, protein))
        cdna = "".join(rng.choice(CODONS[aa]) for aa in protein)
        for j, fraction in enumerate(fractions):
            size = int(len(cdna) * fraction)
            start = rng.randint(0, len(cdna) - size)
            utr5 = "".join(rng.choice("ACGT") for _ in range(utr))
            utr3 = "".join(rng.choice("ACGT") for _ in range(utr))
            seq = list(utr5 + cdna[start:start + size] + utr3)
            for k, base in enumerate(seq):
                if rng.random() < error_rate:
                    seq[k] = rng.choice([b for b in "ACGT" if b != base])
            dna = "".join(seq)
            if rng.random() < reverse_fraction:
                dna = dna.translate(_COMPLEMENT)[::-1]
            tid = f"tr_{pid}_{j}"
            transcripts.append((tid, dna))
            origin[tid] = pid
    rng.shuffle(transcripts)
    paths = {
        "proteins": out_dir / PROTEINS_FILE,
        "transcripts": out_dir / TRANSCRIPTS_FILE,
        "origin": out_dir / ORIGIN_FILE,
    }
    _write_fasta(paths["proteins"], protein_records)
    _write_fasta(paths["transcripts"], transcripts)
    paths["origin"].write_text(json.dumps(origin, sort_keys=True))
    return {role: str(path) for role, path in paths.items()}
