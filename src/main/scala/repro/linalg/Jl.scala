package repro.linalg

/** Johnson–Lindenstrauss projections (Lemma 3.4): rows of ±1/√w entries.
  *
  * Entries are derived from a splittable counter hash so a broadcast seed is
  * all a Spark task needs — materialized rows and lazily hashed entries are
  * bit-identical for the same (seed, row, column).
  */
object Jl {

  /** SplitMix64 finalizer — a strong 64-bit mix. */
  @inline private def mix(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Entry (row j, column v) of the w-row projection: ±1/√w. */
  @inline def entry(seed: Long, j: Int, v: Int, w: Int): Double = {
    val h = mix(seed ^ (j.toLong << 32) ^ (v.toLong & 0xffffffffL))
    // 1/√w with the hash's low bit as its sign bit: −1/√w is −(1/√w)
    // exactly, and a flipped bit does not stall on an unpredictable branch
    java.lang.Double.longBitsToDouble(java.lang.Double.doubleToRawLongBits(1.0 / math.sqrt(w.toDouble)) ^ (h << 63))
  }

  /** Materialize the full w×n projection (row-major rows). */
  def materialize(seed: Long, w: Int, n: Int): Array[Array[Double]] =
    Array.tabulate(w)(j => Array.tabulate(n)(v => entry(seed, j, v, w)))

  /** Practical projection width for error parameter ε (DESIGN.md): the
    * theoretical 24(ε/7)^{-2} log n constant is unusable in practice; this
    * keeps the ε^{-2} scaling with a realistic constant.
    */
  def width(eps: Double): Int = math.max(4, math.ceil(0.5 / (eps * eps)).toInt)
}
