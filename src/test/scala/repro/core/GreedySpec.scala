package repro.core

import org.scalatest.funsuite.AnyFunSuite

class GreedySpec extends AnyFunSuite {

  test("argmax breaks ties to the lowest id, never re-picks a node and ignores −∞") {
    val ninf = Double.NegativeInfinity
    assert(Greedy.argmax(Array(1.0, 3.0, 3.0, 2.0), Set.empty) == 1)
    assert(Greedy.argmax(Array(1.0, 3.0, 3.0, 2.0), Set(1)) == 2)
    assert(Greedy.argmax(Array(ninf, -5.0, ninf), Set.empty) == 1)
    assert(Greedy.argmax(Array(ninf, 7.0), Set(1)) == -1)
  }

  test("run picks first, then the argmax of each iteration's Δ given the picks so far") {
    // Δ(u) = u mod 3, and −∞ on ids below 3 once 5 is picked
    val seen = Seq.newBuilder[(Set[Int], Int)]
    val picks = Greedy.run(4, first = 4) { (s, i) =>
      seen += ((s, i))
      Array.tabulate(8)(u => if (s(5) && u < 3) Double.NegativeInfinity else (u % 3).toDouble)
    }
    assert(picks == Seq(4, 2, 5, 7))
    assert(seen.result() == Seq((Set(4), 1), (Set(4, 2), 2), (Set(4, 2, 5), 3)))
  }
}
