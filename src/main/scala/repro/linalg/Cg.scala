package repro.linalg

import repro.graph.CsrGraph

/** Jacobi-preconditioned conjugate gradient on Laplacian submatrices.
  *
  * This is the offline substitute for the Julia Kyng–Sachdeva approximate
  * Cholesky solver the paper's APPROXGREEDY baseline depends on (see
  * DESIGN.md "Substitutions"): a black-box nearly-linear SDD solver whose
  * per-solve cost is Θ(m · iters), so APPROXGREEDY's m-dominated scaling is
  * preserved.
  */
object Cg {

  /** `y = L_{-S} x` where vectors live on all n nodes but entries in S are
    * identically zero (grounded). `inS(u)` marks membership.
    */
  def applyLaplacianMinusS(g: CsrGraph, inS: Array[Boolean], x: Array[Double]): Array[Double] = {
    val y = new Array[Double](g.n)
    var u = 0
    while (u < g.n) {
      if (!inS(u)) {
        var s = g.degree(u) * x(u)
        var i = g.off(u)
        while (i < g.off(u + 1)) { val v = g.adj(i); if (!inS(v)) s -= x(v); i += 1 }
        y(u) = s
      }
      u += 1
    }
    y
  }

  /** Solve `L_{-S} x = b` (b must be zero on S) by preconditioned CG.
    *
    * @param relTol stop when ||r|| ≤ relTol·||b||; a solve that has not got
    *               there after 10·√n + 200 iterations (generous for SDD), or
    *               whose residual turned NaN, fails
    * @return solution with zeros on S, plus the iteration count
    */
  def solve(g: CsrGraph, s: Set[Int], b: Array[Double], relTol: Double): (Array[Double], Int) = {
    val n = g.n
    require(s.nonEmpty, "L_{-S} requires non-empty S (L itself is singular)")
    val inS = new Array[Boolean](n)
    s.foreach(inS(_) = true)
    val cap = 10 * math.sqrt(n.toDouble).toInt + 200
    val x = new Array[Double](n)
    val r = b.clone()
    var u = 0
    while (u < n) { if (inS(u)) r(u) = 0.0; u += 1 }
    val dInv = Array.tabulate(n)(v => if (inS(v) || g.degree(v) == 0) 0.0 else 1.0 / g.degree(v))
    val z = Array.tabulate(n)(v => dInv(v) * r(v))
    val p = z.clone()
    var rz = dot(r, z)
    val bNorm = math.sqrt(dot(b, b))
    if (bNorm == 0.0) return (x, 0)
    var iter = 0
    var rNorm = math.sqrt(dot(r, r))
    while (rNorm > relTol * bNorm && iter < cap) {
      val ap = applyLaplacianMinusS(g, inS, p)
      val alpha = rz / dot(p, ap)
      var i = 0
      while (i < n) { x(i) += alpha * p(i); r(i) -= alpha * ap(i); i += 1 }
      i = 0
      while (i < n) { z(i) = dInv(i) * r(i); i += 1 }
      val rzNew = dot(r, z)
      val beta = rzNew / rz
      rz = rzNew
      i = 0
      while (i < n) { p(i) = z(i) + beta * p(i); i += 1 }
      rNorm = math.sqrt(dot(r, r))
      iter += 1
    }
    // NaN compares false: a node of degree 0 outside S makes L_{-S} singular
    // and the first step 0/0
    if (!(rNorm <= relTol * bNorm))
      throw new ArithmeticException(
        s"CG did not converge: residual ||r|| = $rNorm after $iter iterations, target relTol·||b|| = ${relTol * bNorm}")
    (x, iter)
  }

  @inline private def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }
}
