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

  test("firstPick is the argmin of x with x_s ≡ 0, ties to s and then to the lowest id") {
    // x(s) is ignored: s scores 0 whatever the array holds
    assert(Greedy.firstPick(Array(1.0, -9.0, 2.0), s = 1) == 1)
    // no score below 0: s wins, also against a 0 at a lower id
    assert(Greedy.firstPick(Array(0.0, 3.0, 0.0), s = 2) == 2)
    // a negative score beats s; equal negatives go to the lowest id
    assert(Greedy.firstPick(Array(0.5, -1.0, 0.0, -1.0), s = 2) == 1)
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
