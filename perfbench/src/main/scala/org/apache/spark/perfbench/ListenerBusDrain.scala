package org.apache.spark.perfbench

import org.apache.spark.SparkContext

/** Blocks until every event already posted to the listener bus has been
  * delivered. The bus is `private[spark]`, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext, timeoutMs: Long = 60000L): Unit =
    sc.listenerBus.waitUntilEmpty(timeoutMs)
}
