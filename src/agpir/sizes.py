"""The size rules of both constructions, stated once for genus g in {0, 1}.

`rates` reads them to find the best L and `pir_scheme` to build and check
an instance, so the rate tables and the build cannot disagree. Z is the
number of rational zeros of y (two-torsion points), counted at genus 1 only.
"""

from __future__ import annotations

from .errors import BadParams, BadTheta

# Largest share table, L * M * N symbols, that `agpir simulate` builds; its
# query table is as large and its transcript holds both.
TABLE_SYMBOL_CAP = 2**21


def refuse_count_above(name: str, count: int, cap: int) -> None:
    """The bound on a command-line count that sets a loop's length: at most `cap`.

    The COUNT of `verify --subsets sample:COUNT:SEED` is the number of ranks
    a sampled check runs, so its cap is `agcode.DEFAULT_SUBSET_CAP`, the most
    subsets an exhaustive check enumerates. `sweep --xt-max` sets the number
    of rows per genus, and its cap is q: X = T above q leaves too few points
    for L = 1 at either genus, so every row past it is infeasible.
    """
    if count > cap:
        raise BadParams(f"refusing {name} = {count} (cap {cap})")


def check_levels(x: int, t: int) -> None:
    """The security and privacy levels: X >= 1 and T >= 1."""
    if x < 1 or t < 1:
        raise BadParams(f"security and privacy levels must both be >= 1, got X = {x}, T = {t}")


def check_theta(theta: int, num_files: int) -> None:
    """The range of a 1-based file index: theta in 1..num_files."""
    if not 1 <= theta <= num_files:
        raise BadTheta(f"theta must be in 1..{num_files}, got {theta}")


def points_needed(genus: int, l: int, x: int, t: int, z: int = 0) -> int:
    """Rational points the curve needs: 2L + X + T + 1, or 2L + X + T + 11 + Z at genus 1."""
    return 2 * l + x + t + 1 + genus * (10 + z)


def num_servers(genus: int, l: int, x: int, t: int) -> int:
    """N = L + X + T + 8g evaluation points, one per server."""
    return l + x + t + 8 * genus


def max_fragments(genus: int, points: int, x: int, t: int, z: int = 0) -> int:
    """Largest L (odd at genus 1) that `points` rational points allow; below 1 if none."""
    best = (points - points_needed(genus, 0, x, t, z)) // 2
    return best - 1 if genus == 1 and best % 2 == 0 else best


def masking_poles(genus: int, level: int) -> int:
    """Pole order at infinity of the privacy (T - 1 + 2g) or security (X - 1 + 2g) space."""
    return level - 1 + 2 * genus


def noise_poles(genus: int, x: int, t: int) -> int:
    """Pole order at infinity of the noise space: X + T - 1 + 5g (plus (y)_0 at genus 1)."""
    return x + t - 1 + 5 * genus
