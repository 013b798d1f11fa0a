package repro.linalg

import repro.graph.CsrGraph

/** Jacobi-preconditioned conjugate gradient on Laplacian submatrices.
  *
  * This is the offline substitute for the Julia Kyng–Sachdeva approximate
  * Cholesky solver the paper's APPROXGREEDY baseline depends on (see
  * DESIGN.md "Substitutions"): a black-box nearly-linear SDD solver whose
  * per-solve cost is Θ(m · iters), so APPROXGREEDY's m-dominated scaling is
  * preserved.
  *
  * There is one CG kernel. It solves several right-hand sides together as
  * independent columns that share every pass over the graph; [[solve]] is its
  * one-column call.
  */
object Cg {

  /** Widest block of columns solved together: a block holds six n×width
    * arrays, so this bounds a solve's memory whatever the number of columns.
    */
  private final val MaxBlock = 64

  /** Solve `L_{-S} x = b` (b must be zero on S) by preconditioned CG.
    *
    * @param relTol stop when ||r|| ≤ relTol·||b||; a solve that has not got
    *               there after 10·√n + 200 iterations (generous for SDD), or
    *               whose residual turned NaN, fails
    * @return solution with zeros on S, plus the iteration count
    */
  def solve(g: CsrGraph, s: Set[Int], b: Array[Double], relTol: Double): (Array[Double], Int) = {
    var out: (Array[Double], Int) = null
    solveColumns(g, s, 1, relTol)((_, _, blk) => System.arraycopy(b, 0, blk, 0, g.n)) {
      (_, _, _, x, iters) => out = (x, iters(0))
    }
    out
  }

  /** Solve `L_{-S} x_c = b_c` for the columns c = 0 until `cols`, in blocks of
    * consecutive columns. A block of width bw is node-major: entry (u, j) sits
    * at `u·bw + j` and belongs to column `c0 + j`. Each column runs exactly
    * the operations of a lone [[solve]] and stops at its own tolerance, so
    * its solution and iteration count are bit-identical to that call's.
    *
    * @param fill `(c0, bw, b)` writes the block's right-hand sides into the
    *             zeroed `b`; blocks are filled in column order
    * @param use  `(c0, bw, b, x, iters)` reads the block's right-hand sides,
    *             solutions and per-column iteration counts
    * @throws ArithmeticException naming the lowest column of a block that
    *         stopped above `relTol·||b||` or at a NaN residual, before `use`
    *         sees that block
    */
  def solveColumns(g: CsrGraph, s: Set[Int], cols: Int, relTol: Double)
                  (fill: (Int, Int, Array[Double]) => Unit)
                  (use: (Int, Int, Array[Double], Array[Double], Array[Int]) => Unit): Unit = {
    require(s.nonEmpty, "L_{-S} requires non-empty S (L itself is singular)")
    val n = g.n
    val inS = new Array[Boolean](n)
    s.foreach(inS(_) = true)
    val blocks = (cols + MaxBlock - 1) / MaxBlock
    var k = 0
    while (k < blocks) {
      val c0 = (k.toLong * cols / blocks).toInt
      val bw = ((k + 1).toLong * cols / blocks).toInt - c0
      val b = new Array[Double](n * bw)
      fill(c0, bw, b)
      val (x, iters) = new Block(g, inS, b, bw).solve(relTol, c0)
      use(c0, bw, b, x, iters)
      k += 1
    }
  }

  /** CG state of one block of `bw` columns. The active columns occupy the
    * first `act` slots; a column that stops swaps places with the last active
    * one, so every pass runs over the active slots only. The passes keep each
    * column's own order of operations: its sums run over the nodes in order,
    * and its SpMV row sums subtract the neighbors in CSR order.
    */
  private final class Block(g: CsrGraph, inS: Array[Boolean], b: Array[Double], bw: Int) {
    private val n = g.n
    // L_{-S} = D − A on the nodes outside S: each such node's neighbors
    // outside S, in CSR order, as the offsets `v·bw` of their rows
    private val off = new Array[Int](n + 1)
    private val nbr = new Array[Int](g.adj.length)
    filterNeighbors()
    private val x = new Array[Double](n * bw)
    private val r = b.clone()
    private val z = new Array[Double](n * bw)
    private val p = new Array[Double](n * bw)
    private val ap = new Array[Double](n * bw)
    private val dInv = new Array[Double](n)
    // per slot
    private val col = Array.range(0, bw)
    private val bNorm = new Array[Double](bw)
    private val rNorm = new Array[Double](bw)
    private val rz = new Array[Double](bw)
    private val alpha = new Array[Double](bw)
    private var act = bw

    private val iters = new Array[Int](bw) // per column
    private var failCol = -1
    private var failMsg = ""

    /** Fills [[off]] and [[nbr]]; a method, since a loop in a constructor
      * runs interpreted.
      */
    private def filterNeighbors(): Unit = {
      var u = 0
      while (u < n) {
        var e = off(u)
        if (!inS(u)) {
          var i = g.off(u)
          while (i < g.off(u + 1)) { val v = g.adj(i); if (!inS(v)) { nbr(e) = v * bw; e += 1 }; i += 1 }
        }
        off(u + 1) = e
        u += 1
      }
    }

    def solve(relTol: Double, c0: Int): (Array[Double], Array[Int]) = {
      val cap = 10 * math.sqrt(n.toDouble).toInt + 200
      start()
      var j = bw - 1
      while (j >= 0) {
        if (bNorm(j) == 0.0) stop(j, 0, relTol, check = false)
        else if (!(rNorm(j) > relTol * bNorm(j))) stop(j, 0, relTol, check = true)
        j -= 1
      }
      var iter = 0
      while (act > 0) {
        step()
        iter += 1
        j = act - 1
        while (j >= 0) {
          if (!(rNorm(j) > relTol * bNorm(j) && iter < cap)) stop(j, iter, relTol, check = true)
          j -= 1
        }
      }
      if (failCol >= 0) throw new ArithmeticException(s"CG did not converge on column ${c0 + failCol}: $failMsg")
      // the solutions in column order, into z, which is no longer needed
      var u = 0
      while (u < n) {
        val base = u * bw
        j = 0
        while (j < bw) { z(base + col(j)) = x(base + j); j += 1 }
        u += 1
      }
      (z, iters)
    }

    /** r = b zeroed on S, z = D⁻¹r, p = z, with ||b||, ||r|| and rᵀz. */
    private def start(): Unit = {
      val bSq = new Array[Double](bw); val rSq = new Array[Double](bw)
      var u = 0
      while (u < n) {
        val base = u * bw
        val di = if (inS(u) || g.degree(u) == 0) 0.0 else 1.0 / g.degree(u)
        dInv(u) = di
        var j = 0
        while (j < bw) {
          val k = base + j
          val bv = b(k)
          bSq(j) += bv * bv
          if (inS(u)) r(k) = 0.0
          val rv = r(k); val zv = di * rv
          z(k) = zv; p(k) = zv
          rz(j) += rv * zv
          rSq(j) += rv * rv
          j += 1
        }
        u += 1
      }
      var j = 0
      while (j < bw) {
        bNorm(j) = math.sqrt(bSq(j)); rNorm(j) = math.sqrt(rSq(j))
        j += 1
      }
    }

    /** One CG iteration of every active column. */
    private def step(): Unit = {
      spmv()
      var j = 0
      while (j < act) { if (j + 4 <= act) { update4(j); j += 4 } else { update1(j); j += 1 } }
    }

    /** ap = L_{-S} p on the active slots (rows on S stay 0), then α = rᵀz /
      * pᵀap. A single row sum is a chain of dependent subtractions, so eight
      * or four columns go together: they share each neighbor read, and their
      * independent sums hide the subtraction latency.
      */
    private def spmv(): Unit = {
      var j = 0
      while (j < act) {
        if (j + 8 <= act) { spmv8(j); j += 8 } else if (j + 4 <= act) { spmv4(j); j += 4 } else { spmv1(j); j += 1 }
      }
    }

    /** [[spmv]] of slot j alone. */
    private def spmv1(j: Int): Unit = {
      val p = this.p; val ap = this.ap; val off = this.off; val nbr = this.nbr; val inS = this.inS
      val bw = this.bw; val n = this.n
      var u = 0
      while (u < n) {
        if (!inS(u)) {
          val k = u * bw + j
          var s0 = g.degree(u).toDouble * p(k)
          var i = off(u)
          while (i < off(u + 1)) { s0 -= p(nbr(i) + j); i += 1 }
          ap(k) = s0
        }
        u += 1
      }
      var pap = 0.0
      u = 0
      while (u < n) { val k = u * bw + j; pap += p(k) * ap(k); u += 1 }
      alpha(j) = rz(j) / pap
    }

    /** [[spmv]] of slots j until j + 4. */
    private def spmv4(j: Int): Unit = {
      val p = this.p; val ap = this.ap; val off = this.off; val nbr = this.nbr; val inS = this.inS
      val bw = this.bw; val n = this.n
      var q0 = 0.0; var q1 = 0.0; var q2 = 0.0; var q3 = 0.0
      var u = 0
      while (u < n) {
        val k = u * bw + j
        if (!inS(u)) {
          val d = g.degree(u).toDouble
          var s0 = d * p(k); var s1 = d * p(k + 1); var s2 = d * p(k + 2); var s3 = d * p(k + 3)
          var i = off(u)
          while (i < off(u + 1)) {
            val v = nbr(i) + j
            s0 -= p(v); s1 -= p(v + 1); s2 -= p(v + 2); s3 -= p(v + 3)
            i += 1
          }
          ap(k) = s0; ap(k + 1) = s1; ap(k + 2) = s2; ap(k + 3) = s3
        }
        q0 += p(k) * ap(k); q1 += p(k + 1) * ap(k + 1); q2 += p(k + 2) * ap(k + 2); q3 += p(k + 3) * ap(k + 3)
        u += 1
      }
      alpha(j) = rz(j) / q0; alpha(j + 1) = rz(j + 1) / q1; alpha(j + 2) = rz(j + 2) / q2; alpha(j + 3) = rz(j + 3) / q3
    }

    /** [[spmv]] of slots j until j + 8. */
    private def spmv8(j: Int): Unit = {
      val p = this.p; val ap = this.ap; val off = this.off; val nbr = this.nbr; val inS = this.inS
      val bw = this.bw; val n = this.n
      var q0 = 0.0; var q1 = 0.0; var q2 = 0.0; var q3 = 0.0
      var q4 = 0.0; var q5 = 0.0; var q6 = 0.0; var q7 = 0.0
      var u = 0
      while (u < n) {
        val k = u * bw + j
        if (!inS(u)) {
          val d = g.degree(u).toDouble
          var s0 = d * p(k); var s1 = d * p(k + 1); var s2 = d * p(k + 2); var s3 = d * p(k + 3)
          var s4 = d * p(k + 4); var s5 = d * p(k + 5); var s6 = d * p(k + 6); var s7 = d * p(k + 7)
          var i = off(u)
          while (i < off(u + 1)) {
            val v = nbr(i) + j
            s0 -= p(v); s1 -= p(v + 1); s2 -= p(v + 2); s3 -= p(v + 3)
            s4 -= p(v + 4); s5 -= p(v + 5); s6 -= p(v + 6); s7 -= p(v + 7)
            i += 1
          }
          ap(k) = s0; ap(k + 1) = s1; ap(k + 2) = s2; ap(k + 3) = s3
          ap(k + 4) = s4; ap(k + 5) = s5; ap(k + 6) = s6; ap(k + 7) = s7
        }
        q0 += p(k) * ap(k); q1 += p(k + 1) * ap(k + 1); q2 += p(k + 2) * ap(k + 2); q3 += p(k + 3) * ap(k + 3)
        q4 += p(k + 4) * ap(k + 4); q5 += p(k + 5) * ap(k + 5); q6 += p(k + 6) * ap(k + 6); q7 += p(k + 7) * ap(k + 7)
        u += 1
      }
      alpha(j) = rz(j) / q0; alpha(j + 1) = rz(j + 1) / q1; alpha(j + 2) = rz(j + 2) / q2; alpha(j + 3) = rz(j + 3) / q3
      alpha(j + 4) = rz(j + 4) / q4; alpha(j + 5) = rz(j + 5) / q5; alpha(j + 6) = rz(j + 6) / q6; alpha(j + 7) = rz(j + 7) / q7
    }

    /** Slot j: x += αp, r −= α·ap, z = D⁻¹r, with the new rᵀz and ||r||;
      * then β = rᵀz / previous rᵀz and p = z + βp.
      */
    private def update1(j: Int): Unit = {
      val x = this.x; val r = this.r; val z = this.z; val p = this.p; val ap = this.ap
      val dInv = this.dInv; val bw = this.bw; val n = this.n
      val a = alpha(j)
      var rzj = 0.0; var rrj = 0.0
      var u = 0
      while (u < n) {
        val k = u * bw + j
        x(k) += a * p(k)
        val rv = r(k) - a * ap(k); r(k) = rv
        val zv = dInv(u) * rv; z(k) = zv
        rzj += rv * zv; rrj += rv * rv
        u += 1
      }
      val beta = rzj / rz(j)
      rz(j) = rzj; rNorm(j) = math.sqrt(rrj)
      u = 0
      while (u < n) { val k = u * bw + j; p(k) = z(k) + beta * p(k); u += 1 }
    }

    /** [[update1]] of slots j until j + 4. */
    private def update4(j: Int): Unit = {
      val x = this.x; val r = this.r; val z = this.z; val p = this.p; val ap = this.ap
      val dInv = this.dInv; val bw = this.bw; val n = this.n
      val a0 = alpha(j); val a1 = alpha(j + 1); val a2 = alpha(j + 2); val a3 = alpha(j + 3)
      var rz0 = 0.0; var rz1 = 0.0; var rz2 = 0.0; var rz3 = 0.0
      var rr0 = 0.0; var rr1 = 0.0; var rr2 = 0.0; var rr3 = 0.0
      var u = 0
      while (u < n) {
        val k = u * bw + j
        val di = dInv(u)
        x(k) += a0 * p(k); x(k + 1) += a1 * p(k + 1); x(k + 2) += a2 * p(k + 2); x(k + 3) += a3 * p(k + 3)
        val r0 = r(k) - a0 * ap(k); val r1 = r(k + 1) - a1 * ap(k + 1)
        val r2 = r(k + 2) - a2 * ap(k + 2); val r3 = r(k + 3) - a3 * ap(k + 3)
        r(k) = r0; r(k + 1) = r1; r(k + 2) = r2; r(k + 3) = r3
        val z0 = di * r0; val z1 = di * r1; val z2 = di * r2; val z3 = di * r3
        z(k) = z0; z(k + 1) = z1; z(k + 2) = z2; z(k + 3) = z3
        rz0 += r0 * z0; rz1 += r1 * z1; rz2 += r2 * z2; rz3 += r3 * z3
        rr0 += r0 * r0; rr1 += r1 * r1; rr2 += r2 * r2; rr3 += r3 * r3
        u += 1
      }
      val b0 = rz0 / rz(j); val b1 = rz1 / rz(j + 1); val b2 = rz2 / rz(j + 2); val b3 = rz3 / rz(j + 3)
      rz(j) = rz0; rz(j + 1) = rz1; rz(j + 2) = rz2; rz(j + 3) = rz3
      rNorm(j) = math.sqrt(rr0); rNorm(j + 1) = math.sqrt(rr1); rNorm(j + 2) = math.sqrt(rr2); rNorm(j + 3) = math.sqrt(rr3)
      u = 0
      while (u < n) {
        val k = u * bw + j
        p(k) = z(k) + b0 * p(k); p(k + 1) = z(k + 1) + b1 * p(k + 1)
        p(k + 2) = z(k + 2) + b2 * p(k + 2); p(k + 3) = z(k + 3) + b3 * p(k + 3)
        u += 1
      }
    }

    /** Retire slot j after `iter` iterations; with `check`, record a failure
      * if it stopped above its target or at a NaN residual (NaN compares
      * false: a node of degree 0 outside S makes L_{-S} singular and the first
      * step 0/0).
      */
    private def stop(j: Int, iter: Int, relTol: Double, check: Boolean): Unit = {
      val c = col(j)
      iters(c) = iter
      if (check && !(rNorm(j) <= relTol * bNorm(j)) && (failCol < 0 || c < failCol)) {
        failCol = c
        failMsg = s"residual ||r|| = ${rNorm(j)} after $iter iterations, target relTol·||b|| = ${relTol * bNorm(j)}"
      }
      val last = act - 1
      if (j != last) {
        var u = 0
        while (u < n) {
          val k = u * bw + j; val l = u * bw + last
          val t = x(k); x(k) = x(l); x(l) = t
          r(k) = r(l); z(k) = z(l); p(k) = p(l)
          u += 1
        }
        col(j) = col(last); col(last) = c
        bNorm(j) = bNorm(last); rNorm(j) = rNorm(last); rz(j) = rz(last)
      }
      act = last
    }
  }
}
