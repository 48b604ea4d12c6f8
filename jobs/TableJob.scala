package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.exp.Figures

/** spark-submit entrypoint for the paper's tables and figures, each rendered
  * as a table by the same `repro.exp.Figures` function its bench suite runs,
  * sized by the same `BENCH_*` variables.
  *
  * Usage: TableJob <table1|table2|fig3|fig4|fig8>
  */
object TableJob {

  val usage = "usage: TableJob <table1|table2|fig3|fig4|fig8>"

  private val tables = Map[String, (SparkSession, Figures.Inputs) => Seq[Figures.Table]](
    "table1" -> ((spark, _) => Seq(Figures.table1(spark).table)),
    "table2" -> ((_, in) => Seq(Figures.table2(in).table)),
    "fig3" -> ((_, in) => Seq(Figures.fig3(in).table)),
    "fig4" -> ((_, in) => Seq(Figures.fig4Data(in).table, Figures.fig4Gauss(in).table)),
    "fig8" -> ((_, in) => Seq(Figures.fig8a(in).table, Figures.fig8b(in).table)))

  /** Run the named table's experiment, print its tables and return them. */
  def run(spark: SparkSession, args: Array[String]): Seq[Figures.Table] = {
    require(args.length == 1 && tables.contains(args(0)), usage)
    val out = tables(args(0))(spark, new Figures.Inputs)
    out.foreach(_.print())
    out
  }

  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder.appName("repro-table").getOrCreate()
    try run(spark, args) finally spark.stop()
  }
}
