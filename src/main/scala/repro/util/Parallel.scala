package repro.util

import java.util.concurrent.{Callable, ExecutionException, Executors, ThreadFactory, TimeUnit}
import scala.jdk.CollectionConverters._

/** Runs independent tasks on a fixed pool of threads. */
object Parallel {

  /** Run every task on at most `threads` threads named `name-…`, wait for
    * all of them, and return their results in task order. A task that throws
    * does not stop the others: once all have finished, the first failure in
    * task order is rethrown. The pool is shut down before this returns.
    */
  def all[T](name: String, threads: Int, tasks: Seq[() => T]): Vector[T] = {
    if (tasks.isEmpty) return Vector.empty
    val base = Executors.defaultThreadFactory()
    val named: ThreadFactory = r => {
      val t = base.newThread(r)
      t.setName(s"$name-${t.getName}")
      t
    }
    val pool = Executors.newFixedThreadPool(math.min(threads, tasks.size), named)
    try {
      val done = pool.invokeAll(tasks.map(t => (() => t()): Callable[T]).asJava).asScala.toVector
      done.map(f => try f.get() catch { case e: ExecutionException => throw e.getCause })
    } finally {
      pool.shutdown()
      pool.awaitTermination(10, TimeUnit.MINUTES)
    }
  }
}
