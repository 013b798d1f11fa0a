package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Synthetic graph generators.
  *
  * All generators return an undirected edge DataFrame with integer columns
  * `src`, `dst` (canonical orientation `src < dst`, no duplicates, no
  * self-loops) over nodes `0 until n`, and are deterministic in their seed.
  *
  * These are the offline stand-ins for the paper's KONECT/SNAP graphs (see
  * DESIGN.md "Substitutions"): Barabási–Albert reproduces the scale-free hub
  * structure the paper's complexity analysis leans on, Watts–Strogatz the
  * small-world regime, the 2-D grid the high-diameter road-network regime
  * (Euroroads), and Erdős–Rényi a homogeneous control.
  */
object GraphGen {

  private def toDf(spark: SparkSession, n: Int, edges: Seq[(Int, Int)]): DataFrame = {
    import spark.implicits._
    val canon = edges.iterator
      .filter(e => e._1 != e._2)
      .map(e => if (e._1 < e._2) e else (e._2, e._1))
      .toSeq.distinct
    spark.createDataset(canon).toDF("src", "dst").repartition(math.max(1, n / 50000 + 1))
  }

  /** Barabási–Albert preferential attachment: start from a clique on
    * `mAttach + 1` nodes, then each new node attaches to `mAttach` distinct
    * existing nodes chosen proportionally to degree (repeated-endpoint trick).
    * Connected by construction; yields a power-law degree tail.
    */
  def barabasiAlbert(spark: SparkSession, n: Int, mAttach: Int = 4, seed: Long = 7): DataFrame = {
    require(n > mAttach && mAttach >= 1)
    val rng = new java.util.SplittableRandom(seed)
    // targets: flat list in which each node appears once per incident edge,
    // so uniform sampling from it is degree-proportional.
    val targets = new scala.collection.mutable.ArrayBuffer[Int](4 * n * mAttach)
    val edges = Array.newBuilder[(Int, Int)]
    val core = mAttach + 1
    for (a <- 0 until core; b <- a + 1 until core) {
      edges += ((a, b)); targets += a; targets += b
    }
    val picked = new java.util.HashSet[Integer]()
    var v = core
    while (v < n) {
      picked.clear()
      while (picked.size < mAttach) {
        val t = targets(rng.nextInt(targets.size))
        if (t != v) picked.add(t)
      }
      val it = picked.iterator()
      while (it.hasNext) {
        val t: Int = it.next()
        edges += ((t, v)); targets += t; targets += v
      }
      v += 1
    }
    toDf(spark, n, edges.result().toSeq)
  }

  /** Watts–Strogatz small world: ring lattice with `k` nearest neighbors per
    * side, each edge rewired with probability `beta` (keeping the graph
    * simple). The ring backbone keeps it connected.
    */
  def wattsStrogatz(spark: SparkSession, n: Int, k: Int = 3, beta: Double = 0.1,
                    seed: Long = 11): DataFrame = {
    require(n > 2 * k && k >= 1)
    val rng = new java.util.SplittableRandom(seed)
    val present = new java.util.HashSet[Long]()
    def key(a: Int, b: Int): Long = math.min(a, b).toLong * n + math.max(a, b)
    val edges = scala.collection.mutable.ArrayBuffer.empty[(Int, Int)]
    for (u <- 0 until n; j <- 1 to k) { val v = (u + j) % n; if (present.add(key(u, v))) edges += ((u, v)) }
    var i = 0
    while (i < edges.length) {
      val (u, v) = edges(i)
      if (rng.nextDouble() < beta) {
        var w = rng.nextInt(n); var tries = 0
        while ((w == u || present.contains(key(u, w))) && tries < 32) { w = rng.nextInt(n); tries += 1 }
        if (w != u && !present.contains(key(u, w))) {
          present.remove(key(u, v)); present.add(key(u, w)); edges(i) = (u, w)
        }
      }
      i += 1
    }
    toDf(spark, n, edges.toSeq)
  }

  /** Erdős–Rényi G(n, m): `mEdges` distinct uniform pairs. May be
    * disconnected — callers take the LCC via [[GraphOps.largestComponent]].
    */
  def erdosRenyi(spark: SparkSession, n: Int, mEdges: Int, seed: Long = 13): DataFrame = {
    val rng = new java.util.SplittableRandom(seed)
    val present = new java.util.HashSet[Long]()
    val edges = Array.newBuilder[(Int, Int)]
    var added = 0
    while (added < mEdges) {
      val a = rng.nextInt(n); val b = rng.nextInt(n)
      if (a != b) {
        val keyv = math.min(a, b).toLong * n + math.max(a, b)
        if (present.add(keyv)) { edges += ((a, b)); added += 1 }
      }
    }
    toDf(spark, n, edges.result().toSeq)
  }

  /** `rows × cols` 2-D grid — the high-diameter, constant-degree stand-in for
    * road networks (Euroroads). Built Catalyst-side from `spark.range`.
    */
  def grid2d(spark: SparkSession, rows: Int, cols: Int): DataFrame = {
    val n = rows * cols
    val ids = spark.range(n).toDF("id")
    val right = ids
      .where(col("id") % cols =!= (cols - 1))
      .select(col("id").cast("int").as("src"), (col("id") + 1).cast("int").as("dst"))
    val down = ids
      .where(col("id") < (n - cols).toLong)
      .select(col("id").cast("int").as("src"), (col("id") + cols).cast("int").as("dst"))
    right.unionAll(down)
  }

  /** Zachary's Karate club (34 nodes, 78 edges) — the one real tiny graph we
    * can embed verbatim; used for the Fig.-1-style optimality comparison.
    */
  def karate(spark: SparkSession): DataFrame = {
    val e1 = Seq( // 1-indexed, as usually published
      (1,2),(1,3),(1,4),(1,5),(1,6),(1,7),(1,8),(1,9),(1,11),(1,12),(1,13),(1,14),
      (1,18),(1,20),(1,22),(1,32),(2,3),(2,4),(2,8),(2,14),(2,18),(2,20),(2,22),(2,31),
      (3,4),(3,8),(3,9),(3,10),(3,14),(3,28),(3,29),(3,33),(4,8),(4,13),(4,14),
      (5,7),(5,11),(6,7),(6,11),(6,17),(7,17),(9,31),(9,33),(9,34),(10,34),(14,34),
      (15,33),(15,34),(16,33),(16,34),(19,33),(19,34),(20,34),(21,33),(21,34),
      (23,33),(23,34),(24,26),(24,28),(24,30),(24,33),(24,34),(25,26),(25,28),(25,32),
      (26,32),(27,30),(27,34),(28,34),(29,32),(29,34),(30,33),(30,34),(31,33),(31,34),
      (32,33),(32,34),(33,34))
    toDf(spark, 34, e1.map { case (a, b) => (a - 1, b - 1) })
  }

  /** Tiny connected stand-ins for the paper's Zebra (23), Cont. USA (49) and
    * Dolphins (62) graphs (exact edge lists are not embeddable offline):
    * same node counts, dense-social / sparse-planar / social shapes.
    */
  def zebraLike(spark: SparkSession): DataFrame = erdosRenyi(spark, 23, 60, seed = 23)
  def contUsaLike(spark: SparkSession): DataFrame = grid2d(spark, 7, 7)
  def dolphinsLike(spark: SparkSession): DataFrame = wattsStrogatz(spark, 62, 2, 0.2, seed = 62)
}
