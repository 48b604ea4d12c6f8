package repro.core

/** Test conveniences over `Model`. */
object ModelTestOps {

  /** Trivial simplification: first+last point of every trajectory. */
  def firstLast(db: Array[Traj]): SimpleDB = SimpleDB(db.map(t => t.id -> Model.endpoints(t.length)).toMap)
}
