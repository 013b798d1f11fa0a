package repro.perfbench

/** Medians and the minimal JSON writer the benchmark's output needs. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty)
    val s = xs.sorted
    val h = s.length / 2
    if (s.length % 2 == 1) s(h) else (s(h - 1) + s(h)) / 2
  }

  /** JSON text of maps (insertion order kept), sequences, strings, numbers
    * and booleans. Non-finite numbers become `null`.
    */
  def json(v: Any): String = v match {
    case null => "null"
    case s: String => quote(s)
    case b: Boolean => b.toString
    case i: Int => i.toString
    case l: Long => l.toString
    case d: Double => if (d.isNaN || d.isInfinite) "null" else d.toString
    case m: scala.collection.Map[_, _] =>
      m.map { case (k, x) => quote(k.toString) + ":" + json(x) }.mkString("{", ",", "}")
    case xs: Iterable[_] => xs.map(json).mkString("[", ",", "]")
    case a: Array[_] => json(a.toSeq)
    case other => quote(other.toString)
  }

  private def quote(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"' => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }
}
