package repro.util

/** Deterministic, splittable pseudo-random generator (SplitMix64).
  *
  * Every stochastic choice in the reproduction (workload mix, delete
  * predicates, fleet growth, tuner proposals) draws from a [[DetRng]]
  * derived from an explicit seed, so identical inputs yield identical
  * decisions — the paper's explainability requirement (NFR2).
  */
final class DetRng(seed: Long) {
  private var state: Long = seed

  private def mix(z0: Long): Long = {
    var z = z0
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  def nextLong(): Long = {
    state += 0x9e3779b97f4a7c15L
    mix(state)
  }

  /** Uniform double in [0, 1). */
  def nextDouble(): Double = (nextLong() >>> 11) * 1.1102230246251565e-16

  /** Uniform int in [0, bound). Requires bound > 0. */
  def nextInt(bound: Int): Int = {
    require(bound > 0, s"bound must be positive: $bound")
    (nextDouble() * bound).toInt
  }

  /** Independent child generator tagged by `tag`; children with distinct
    * tags are statistically independent of each other and of the parent.
    */
  def split(tag: Long): DetRng = new DetRng(mix(seed ^ mix(tag) ^ 0x5851f42d4c957f2dL))
}

object DetRng {
  /** Stable 64-bit hash of a string — for deriving seeds from names. */
  def hashString(s: String): Long =
    s.foldLeft(0xcbf29ce484222325L)((h, c) => (h ^ c.toLong) * 0x100000001b3L)

  /** Combine several longs into one seed. */
  def combine(parts: Long*): Long =
    parts.foldLeft(0x9e3779b97f4a7c15L)((h, p) => (h ^ p) * 0xff51afd7ed558ccdL)
}
