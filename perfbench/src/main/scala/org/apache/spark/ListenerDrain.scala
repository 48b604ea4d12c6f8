package org.apache.spark

/** Waits until the listener bus has delivered every posted event, so a
  * listener's counts are complete once an action has returned. The bus is
  * package-private to Spark, hence this file's package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
