package repro.core

import repro.data.TrajGen
import repro.queries.Workload
import repro.rl.{DQN, Transition}

/** Policy learning for RL4QDTS (Section IV-C / V-A): deep Q-learning with
  * replay memory over episodes of collective simplification on sampled
  * sub-databases. Both agents share the delayed reward
  * `R = diff(Q(D),Q(D')) − diff(Q(D),Q(D''))` measured every Δ insertions on
  * a synthetic range-query workload (Eq. 10); within a window the reward is
  * shared by every transition of both agents, matching the paper.
  */
object Training {

  final case class TrainConfig(
      profile: TrajGen.Profile = TrajGen.geolife,
      nDbs: Int = 3,              // paper: 12 databases
      trajsPerDb: Int = 60,       // paper: 500 (4000 for Chengdu)
      episodesPerDb: Int = 2,     // paper: 5
      budgetFrac: Double = 0.02,
      nQueries: Int = 100,
      querySizeXY: Double = 2000.0,
      queryTFrac: Double = 1.0,   // temporal query extent as fraction of the span
      workloadKind: String = "data",
      params: QdtsParams = QdtsParams(),
      rewardScale: Double = 100.0, // F1 deltas per window are small; scale for gradient signal
      trainStepsPerWindow: Int = 8,
      seed: Long = 99)

  /** The two learners plus the best validation snapshot seen during training
    * ("the best model is chosen during training", Section V-A). Inference uses
    * the snapshot; the raw online nets remain accessible for analysis.
    */
  final case class TrainedAgents(cube: DQN, point: DQN) {
    var bestCube: Option[repro.rl.NetWeights] = None
    var bestPoint: Option[repro.rl.NetWeights] = None
    var bestValF1: Double = -1.0
    def cubeNet: repro.rl.MLP = bestCube.map(repro.rl.MLP.fromWeights).getOrElse(cube.online)
    def pointNet: repro.rl.MLP = bestPoint.map(repro.rl.MLP.fromWeights).getOrElse(point.online)
  }

  /** Fresh (untrained) agents with the paper's architecture: Agent-Cube
    * 16→25(tanh)→9, Agent-Point 2K→25(tanh)→K.
    */
  def makeAgents(params: QdtsParams, seed: Long = 13): TrainedAgents =
    TrainedAgents(
      // γ slightly below the paper's 0.99 for Agent-Cube: with sparse rewards
      // the bootstrap max overestimates, and a mild discount keeps pointless
      // descents from dominating the stop action
      cube = new DQN(stateDim = 16, nActions = 9, gamma = 0.95, seed = seed),
      point = new DQN(stateDim = 2 * params.k, nActions = params.k, seed = seed + 1))

  /** Train both agents; returns them (the caller snapshots `cubeNet`/`pointNet`
    * for inference).
    */
  def train(cfg: TrainConfig): TrainedAgents = {
    val agents = makeAgents(cfg.params, cfg.seed)
    val rng = new java.util.Random(cfg.seed)

    // held-out validation database for best-model selection
    val valDb = TrajGen.genLocal(cfg.profile, math.max(10, cfg.trajsPerDb / 2), cfg.seed - 7)
    val valN = Model.totalPoints(valDb)
    val valBudget = math.max(2 * valDb.length + 5, math.round(cfg.budgetFrac * valN).toInt)
    val (_, _, _, _, vtmin, vtmax) = Model.bounds(valDb)
    val valWl = Workload.generate(cfg.workloadKind, valDb, cfg.nQueries,
      cfg.querySizeXY, math.max((vtmax - vtmin) * cfg.queryTFrac, 1.0), cfg.seed - 8)
    val valEnv = new QdtsEnv(valDb, valWl, cfg.params)

    def validate(): Unit = {
      RL4QDTS.simplify(valEnv, valBudget, agents.cube.online, agents.point.online,
        seed = 17, RL4QDTS.Variant())
      // the env's incremental F1 of the result: bit-equal to re-running the
      // workload on it (QdtsEnvSpec)
      val f1 = valEnv.avgF1
      if (f1 > agents.bestValF1) {
        agents.bestValF1 = f1
        agents.bestCube = Some(agents.cube.online.snapshot)
        agents.bestPoint = Some(agents.point.online.snapshot)
      }
    }
    // Transitions are built as the step picks actions. A descend step's
    // transition is complete once the next cube's state is seen; the last one
    // of a traversal and the Agent-Point one wait for the insertion's reward.
    // Only that terminal cube transition (the stop that led to the insertion)
    // carries the reward: a traversal leads to exactly one insertion, so
    // paying every descend step would double-count it and bias the policy
    // toward descending.
    var cubeS: Array[Double] = null
    var cubeA = -1
    var pointS: Array[Double] = null
    var pointMask: Array[Boolean] = null
    var pointA = -1
    val cubeAction: RL4QDTS.ActionRule = { (s, mask) =>
      if (cubeS != null) agents.cube.remember(Transition(cubeS, cubeA, 0.0, s, mask, done = false))
      // stop-balanced ε-exploration: uniform random over 9 actions
      // explores "stop" only 1/9 of the time, starving the terminal
      // action of experience; sample it half the time instead
      cubeA =
        if (rng.nextDouble() < agents.cube.epsilon) {
          if (rng.nextBoolean()) 8
          else {
            val kids = (0 until 8).filter(mask)
            if (kids.isEmpty) 8 else kids(rng.nextInt(kids.length))
          }
        } else agents.cube.selectAction(s, mask, explore = false)
      cubeS = s
      cubeA
    }
    val pointAction: RL4QDTS.ActionRule = { (s, mask) =>
      pointA = agents.point.selectAction(s, mask, explore = true)
      pointS = s
      pointMask = mask
      pointA
    }

    for (dbIdx <- 0 until cfg.nDbs) {
      val db = TrajGen.genLocal(cfg.profile, cfg.trajsPerDb, cfg.seed + 1000L * (dbIdx + 1))
      val (_, _, _, _, tmin, tmax) = Model.bounds(db)
      val sizeT = math.max((tmax - tmin) * cfg.queryTFrac, 1.0)
      val workload = Workload.generate(cfg.workloadKind, db, cfg.nQueries,
        cfg.querySizeXY, sizeT, cfg.seed + dbIdx)
      val n = Model.totalPoints(db)
      val budget = math.max(2 * db.length, math.round(cfg.budgetFrac * n).toInt)
      // the octree, its query counts and the ground truth depend only on
      // (db, workload): one env for every episode on this database
      val env = new QdtsEnv(db, workload, cfg.params)

      for (_ <- 0 until cfg.episodesPerDb) {
        env.reset()
        var sinceWindow = 0
        val target = math.min(budget.toLong, n).toInt

        def flushWindow(): Unit = {
          // take learning steps on the replay memories — the paper's Δ-cadence
          // of "perform the queries, acquire rewards"
          var i = 0
          while (i < cfg.trainStepsPerWindow) {
            agents.cube.trainStep(); agents.point.trainStep(); i += 1
          }
          // ε decays per reward window (the paper's 0.99 decay is per update,
          // not per episode — episodes here are far shorter than the paper's)
          agents.cube.decayEpsilon()
          agents.point.decayEpsilon()
          sinceWindow = 0
        }

        while (env.insertedCount < target) {
          val before = env.diff
          RL4QDTS.step(env, rng, RL4QDTS.Variant(), cubeAction, pointAction)
          // this insertion's own F1 improvement; the window's rewards
          // telescope to the Eq. 10 window reward, so the accumulated
          // objective of Eq. 11 is unchanged, but each decision of both
          // agents is credited with the gain it actually produced
          val r = (before - env.diff) * cfg.rewardScale
          agents.point.remember(
            Transition(pointS, pointA, r, new Array[Double](pointS.length), pointMask, done = true))
          if (cubeS != null) {
            agents.cube.remember(
              Transition(cubeS, cubeA, r, new Array[Double](16), Array.fill(9)(false), done = true))
            cubeS = null
          }
          sinceWindow += 1
          if (sinceWindow >= cfg.params.delta) flushWindow()
        }
        if (sinceWindow > 0) flushWindow()
        validate()
      }
    }
    agents
  }
}
