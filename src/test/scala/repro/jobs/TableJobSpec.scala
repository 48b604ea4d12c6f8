package repro.jobs

import repro.SparkSpec

/** The table entrypoint's dispatch: a bad table name fails with the usage
  * message, and `table1` (the cheapest table) returns its four profile rows.
  */
class TableJobSpec extends SparkSpec {

  test("an unknown table name fails with the usage message") {
    for (args <- Seq(Array("table9"), Array.empty[String], Array("table1", "fig3"))) {
      val e = intercept[IllegalArgumentException](TableJob.run(spark, args))
      assert(e.getMessage.contains(TableJob.usage), args.mkString(" "))
    }
  }

  test("table1 returns the four profile rows") {
    val Seq(table) = TableJob.run(spark, Array("table1"))
    assert(table.rows.map(_.head) === Seq("Geolife", "T-Drive", "Chengdu", "OSM"))
    assert(table.rows.forall(_.length === table.header.length))
  }
}
