package bench

import repro.exp.Figures

/** Shared (lazily built, built once per JVM) bench state: the experiments'
  * inputs (`Figures.Inputs`). Benches run sequentially in one forked JVM, so
  * these are computed once no matter how many suites use them.
  */
object BenchShared extends Figures.Inputs {

  /** Append a rendered table to bench_results.md so every run leaves a record. */
  def record(text: String): Unit = {
    val p = java.nio.file.Paths.get("bench_results.md")
    java.nio.file.Files.write(p, text.getBytes(java.nio.charset.StandardCharsets.UTF_8),
      java.nio.file.StandardOpenOption.CREATE, java.nio.file.StandardOpenOption.APPEND)
  }
}
