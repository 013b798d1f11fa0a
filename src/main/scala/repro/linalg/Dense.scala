package repro.linalg

import repro.graph.CsrGraph

/** Minimal dense symmetric linear algebra on flat row-major arrays.
  *
  * This is the exact-computation substrate: the EXACT greedy baseline, the
  * DuckDB-style ground truth for every estimator test, and the Laplacian
  * pseudoinverse identities of Section II. Sized for n up to a few thousand
  * (O(n³) inversion, O(n²) downdates).
  */
object Dense {

  /** Largest n whose n×n matrix fits one JVM array (n² ≤ Int.MaxValue). */
  val MaxN: Int = 46340

  /** n×n matrix of zeros. */
  def zeros(n: Int): Array[Double] = {
    require(n <= MaxN, s"dense $n×$n matrix exceeds the dense limit n ≤ $MaxN")
    new Array[Double](n * n)
  }

  @inline def get(a: Array[Double], n: Int, i: Int, j: Int): Double = a(i * n + j)
  @inline def set(a: Array[Double], n: Int, i: Int, j: Int, v: Double): Unit = a(i * n + j) = v

  /** Dense Laplacian L = D − A of a CSR graph. */
  def laplacian(g: CsrGraph): Array[Double] = {
    val n = g.n
    val a = zeros(n)
    var u = 0
    while (u < n) {
      a(u * n + u) = g.degree(u).toDouble
      var i = g.off(u)
      while (i < g.off(u + 1)) { a(u * n + g.adj(i)) = -1.0; i += 1 }
      u += 1
    }
    a
  }

  /** Submatrix of `a` with rows/cols in `keep` (order preserved). */
  def submatrix(a: Array[Double], n: Int, keep: Array[Int]): Array[Double] = {
    val k = keep.length
    val out = new Array[Double](k * k)
    var i = 0
    while (i < k) {
      var j = 0
      val row = keep(i) * n
      while (j < k) { out(i * k + j) = a(row + keep(j)); j += 1 }
      i += 1
    }
    out
  }

  /** In-place Gauss–Jordan inverse with partial pivoting. Returns a new array.
    * Fine for the SPD/SDD matrices used here.
    */
  def inverse(a0: Array[Double], n: Int): Array[Double] = {
    val a = a0.clone()
    val inv = zeros(n)
    var i = 0
    while (i < n) { inv(i * n + i) = 1.0; i += 1 }
    var col = 0
    while (col < n) {
      // pivot
      var piv = col; var best = math.abs(a(col * n + col))
      var r = col + 1
      while (r < n) { val v = math.abs(a(r * n + col)); if (v > best) { best = v; piv = r }; r += 1 }
      require(best > 1e-300, s"singular matrix at column $col")
      if (piv != col) {
        var j = 0
        while (j < n) {
          var t = a(col * n + j); a(col * n + j) = a(piv * n + j); a(piv * n + j) = t
          t = inv(col * n + j); inv(col * n + j) = inv(piv * n + j); inv(piv * n + j) = t
          j += 1
        }
      }
      val d = a(col * n + col)
      val dInv = 1.0 / d
      var j = 0
      while (j < n) { a(col * n + j) *= dInv; inv(col * n + j) *= dInv; j += 1 }
      r = 0
      while (r < n) {
        if (r != col) {
          val f = a(r * n + col)
          if (f != 0.0) {
            var jj = 0
            val rr = r * n; val cc = col * n
            while (jj < n) { a(rr + jj) -= f * a(cc + jj); inv(rr + jj) -= f * inv(cc + jj); jj += 1 }
          }
        }
        r += 1
      }
      col += 1
    }
    inv
  }

  /** Laplacian pseudoinverse `L† = (L + J/n)^{-1} − J/n` (Section II-B). */
  def pseudoinverse(lap: Array[Double], n: Int): Array[Double] = {
    val shifted = lap.clone()
    val c = 1.0 / n
    var i = 0
    while (i < shifted.length) { shifted(i) += c; i += 1 }
    val inv = inverse(shifted, n)
    i = 0
    while (i < inv.length) { inv(i) -= c; i += 1 }
    inv
  }

  /** `L_{-S}^{-1}` for a CSR graph: rows/cols not in S, indexed by `keep`
    * (ascending node ids not in S). Returns (keep, inverse).
    */
  def submatrixInverse(g: CsrGraph, s: Set[Int]): (Array[Int], Array[Double]) = {
    val keep = (0 until g.n).filterNot(s.contains).toArray
    val lap = laplacian(g)
    val sub = submatrix(lap, g.n, keep)
    (keep, inverse(sub, keep.length))
  }

  /** Schur downdate: given `M = A^{-1}` (k×k) remove index `u` (position in
    * the current ordering): `(A_{-u})^{-1} = M_{-u} − M_{-u,u} M_{u,-u} / M_{uu}`.
    * Used by the EXACT greedy to avoid re-inversion each iteration.
    */
  def downdate(m: Array[Double], k: Int, u: Int): Array[Double] = {
    val out = new Array[Double]((k - 1) * (k - 1))
    val muu = m(u * k + u)
    var i = 0; var oi = 0
    while (i < k) {
      if (i != u) {
        val miu = m(i * k + u)
        var j = 0; var oj = 0
        val rowI = i * k
        while (j < k) {
          if (j != u) {
            out(oi * (k - 1) + oj) = m(rowI + j) - miu * m(u * k + j) / muu
            oj += 1
          }
          j += 1
        }
        oi += 1
      }
      i += 1
    }
    out
  }

  /** Trace. */
  def trace(a: Array[Double], n: Int): Double = {
    var t = 0.0; var i = 0
    while (i < n) { t += a(i * n + i); i += 1 }
    t
  }

  /** Squared Euclidean norm of column `j`. */
  def colNormSq(a: Array[Double], n: Int, j: Int): Double = {
    var s = 0.0; var i = 0
    while (i < n) { val v = a(i * n + j); s += v * v; i += 1 }
    s
  }
}
