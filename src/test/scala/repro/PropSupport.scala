package repro

import org.scalacheck.Gen
import org.scalacheck.rng.Seed

/** Minimal property-testing bridge: the offline image ships scalacheck but not
  * scalatestplus-scalacheck, so suites drive Gen directly through this helper.
  */
trait PropSupport {

  /** Evaluate `f` on `n` deterministic samples of `gen`. Each case starts
    * from the seed that the previous case's generator returned, so a generator
    * that rejects draws and retries does not replay the previous case.
    */
  def forAllN[A](gen: Gen[A], n: Int = 100, seed0: Long = 20240814L)(f: A => Unit): Unit = {
    val params = Gen.Parameters.default
    var seed = Seed(seed0)
    var i = 0
    while (i < n) {
      val r = gen.doPureApply(params, seed)
      f(r.retrieve.get)
      seed = r.seed.next
      i += 1
    }
  }

  def forAllN2[A, B](ga: Gen[A], gb: Gen[B], n: Int = 100)(f: (A, B) => Unit): Unit =
    forAllN(for { a <- ga; b <- gb } yield (a, b), n)(t => f(t._1, t._2))

  def forAllN3[A, B, C](ga: Gen[A], gb: Gen[B], gc: Gen[C], n: Int = 100)(f: (A, B, C) => Unit): Unit =
    forAllN(for { a <- ga; b <- gb; c <- gc } yield (a, b, c), n)(t => f(t._1, t._2, t._3))
}
