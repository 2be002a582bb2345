package repro.util

import org.scalacheck.{Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

class DetRngSpec extends AnyFunSuite {

  /** Run a ScalaCheck property under ScalaTest (no scalatestplus bridge in
    * the offline cache, so we drive ScalaCheck directly).
    */
  private def checkProp(p: Prop): Unit = {
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), p)
    assert(res.passed, res.status.toString)
  }

  test("same seed yields identical streams") {
    val a = new DetRng(42); val b = new DetRng(42)
    assert((1 to 100).map(_ => a.nextLong()) == (1 to 100).map(_ => b.nextLong()))
  }

  test("different seeds diverge") {
    val a = new DetRng(1); val b = new DetRng(2)
    assert((1 to 20).map(_ => a.nextLong()) != (1 to 20).map(_ => b.nextLong()))
  }

  test("nextDouble in [0,1)") {
    val r = new DetRng(7)
    (1 to 10000).foreach { _ =>
      val d = r.nextDouble(); assert(d >= 0.0 && d < 1.0)
    }
  }

  test("nextDouble roughly uniform") {
    val r = new DetRng(11)
    val mean = (1 to 20000).map(_ => r.nextDouble()).sum / 20000
    assert(math.abs(mean - 0.5) < 0.02, s"mean=$mean")
  }

  test("nextInt bounded") {
    val r = new DetRng(3)
    (1 to 5000).foreach { _ =>
      val v = r.nextInt(13); assert(v >= 0 && v < 13)
    }
  }

  test("nextInt rejects non-positive bound") {
    intercept[IllegalArgumentException](new DetRng(1).nextInt(0))
  }

  test("split(tag) is deterministic and independent of parent draws") {
    val a = new DetRng(42)
    a.nextLong() // advance parent
    val c1 = a.split(5).nextLong()
    val c2 = new DetRng(42).split(5).nextLong()
    assert(c1 == c2)
  }

  test("splits with different tags differ") {
    val a = new DetRng(42)
    assert(a.split(1).nextLong() != a.split(2).nextLong())
  }

  test("hashString stable and distinct") {
    assert(DetRng.hashString("lineitem") == DetRng.hashString("lineitem"))
    assert(DetRng.hashString("lineitem") != DetRng.hashString("orders"))
  }

  test("combine order-sensitive") {
    assert(DetRng.combine(1, 2) != DetRng.combine(2, 1))
  }

  test("property: nextInt(b) always < b") {
    checkProp(Prop.forAll { (seed: Long) =>
      val r = new DetRng(seed)
      (1 to 50).forall(_ => { val v = r.nextInt(17); v >= 0 && v < 17 })
    })
  }

  test("property: split determinism across seeds and tags") {
    checkProp(Prop.forAll { (seed: Long, tag: Long) =>
      new DetRng(seed).split(tag).nextLong() == new DetRng(seed).split(tag).nextLong()
    })
  }
}
