package repro.linalg

import org.scalatest.funsuite.AnyFunSuite

class JlSpec extends AnyFunSuite {

  test("entries are ±1/√w and deterministic in (seed, j, v)") {
    val w = 16
    for (j <- 0 until w; v <- 0 until 50) {
      val e = Jl.entry(123L, j, v, w)
      assert(math.abs(math.abs(e) - 1.0 / math.sqrt(w)) < 1e-15)
      assert(e == Jl.entry(123L, j, v, w))
    }
  }

  test("entries equal sign / √w, the sign from SplitMix64's low bit, bit for bit") {
    def mix(z0: Long): Long = {
      var z = z0 + 0x9e3779b97f4a7c15L
      z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
      z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
      z ^ (z >>> 31)
    }
    for (w <- Seq(8, 13, 260, 4561); j <- 0 until 8; v <- 0 until 300) {
      val h = mix(77L ^ (j.toLong << 32) ^ (v.toLong & 0xffffffffL))
      val ref = (if ((h & 1L) == 0L) 1.0 else -1.0) / math.sqrt(w.toDouble)
      assert(java.lang.Double.doubleToRawLongBits(Jl.entry(77L, j, v, w)) == java.lang.Double.doubleToRawLongBits(ref))
    }
  }

  test("materialize matches lazy entries") {
    val m = Jl.materialize(7L, 8, 40)
    for (j <- 0 until 8; v <- 0 until 40) assert(m(j)(v) == Jl.entry(7L, j, v, 8))
  }

  test("different seeds give different matrices") {
    val a = Jl.materialize(1L, 8, 100).flatten
    val b = Jl.materialize(2L, 8, 100).flatten
    assert(a.zip(b).count { case (x, y) => x != y } > 100)
  }

  test("signs are roughly balanced") {
    val m = Jl.materialize(99L, 32, 500).flatten
    val pos = m.count(_ > 0)
    val frac = pos.toDouble / m.length
    assert(frac > 0.45 && frac < 0.55, s"positive fraction $frac")
  }

  test("JL projection approximately preserves squared norms (Lemma 3.4)") {
    val rng = new java.util.SplittableRandom(5)
    val d = 200
    val w = 256 // generous width => tight concentration for the test
    val vecs = Array.fill(20)(Array.fill(d)(rng.nextDouble() - 0.5))
    for (v <- vecs) {
      val proj = Array.tabulate(w) { j =>
        var s = 0.0; var i = 0
        while (i < d) { s += Jl.entry(31L, j, i, w) * v(i); i += 1 }
        s
      }
      val orig = v.map(x => x * x).sum
      val pr = proj.map(x => x * x).sum
      assert(math.abs(pr - orig) / orig < 0.5, s"ratio ${pr / orig}")
    }
  }

  test("width grows as ε shrinks") {
    assert(Jl.width(0.3) <= Jl.width(0.2))
    assert(Jl.width(0.2) <= Jl.width(0.15))
    assert(Jl.width(0.15) <= Jl.width(0.1))
    assert(Jl.width(0.5) >= 4)
  }
}
