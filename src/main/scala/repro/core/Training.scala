package repro.core

import repro.Par
import repro.data.TrajGen
import repro.queries.Workload
import repro.rl.{DQN, MLP, NetWeights, Transition}

/** Policy learning for RL4QDTS (Section IV-C / V-A): deep Q-learning with
  * replay memory over episodes of collective simplification on sampled
  * sub-databases. Both agents share the delayed reward
  * `R = diff(Q(D),Q(D')) − diff(Q(D),Q(D''))` measured every Δ insertions on
  * a synthetic range-query workload (Eq. 10); within a window the reward is
  * shared by every transition of both agents, matching the paper.
  */
object Training {

  /** One training run's set-up; every experiment uses `Experiments.trainConfig`. */
  final case class TrainConfig(
      profile: TrajGen.Profile,
      nDbs: Int,
      trajsPerDb: Int,
      episodesPerDb: Int,
      budgetFrac: Double,
      nQueries: Int,
      querySizeXY: Double,
      workloadKind: String,
      params: QdtsParams,
      trainStepsPerWindow: Int,
      seed: Long)

  /** The two learners plus the best validation snapshot seen during training
    * ("the best model is chosen during training", Section V-A). Inference uses
    * the snapshot; the raw online nets remain accessible for analysis.
    */
  final case class TrainedAgents(cube: DQN, point: DQN) {
    var bestCube: Option[NetWeights] = None
    var bestPoint: Option[NetWeights] = None
    var bestValF1: Double = -1.0
    /** The validation F1 of each episode, in episode order. */
    var valF1s: Vector[Double] = Vector.empty
    def cubeNet: MLP = bestCube.map(MLP.fromWeights).getOrElse(cube.online)
    def pointNet: MLP = bestPoint.map(MLP.fromWeights).getOrElse(point.online)
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

  /** A database of `nTrajs` trajectories of `cfg`'s profile, its query
    * workload over the whole time span, and the env over both.
    */
  private def buildEnv(cfg: TrainConfig, nTrajs: Int, dbSeed: Long, wlSeed: Long): QdtsEnv = {
    val db = TrajGen.genLocal(cfg.profile, nTrajs, dbSeed)
    val workload = Workload.generate(cfg.workloadKind, db, cfg.nQueries,
      cfg.querySizeXY, Workload.fullSpan(db), wlSeed)
    new QdtsEnv(db, workload, cfg.params)
  }

  /** Train both agents; returns them (the caller snapshots `cubeNet`/`pointNet`
    * for inference).
    *
    * Each database is one `Par.all` of two tasks: its episodes, which return
    * each episode's snapshot of both nets, and the validation of the previous
    * database's snapshots in episode order, then the next database's env
    * build. The last database's snapshots are validated after it, so the best
    * model is chosen in episode order, as if each validation ran right after
    * its episode.
    */
  def train(cfg: TrainConfig): TrainedAgents = {
    val agents = makeAgents(cfg.params, cfg.seed)
    val rng = new java.util.Random(cfg.seed)

    // held-out validation database for best-model selection; only the
    // validation task builds and uses it
    lazy val valEnv = buildEnv(cfg, math.max(10, cfg.trajsPerDb / 2), cfg.seed - 7, cfg.seed - 8)
    lazy val valBudget =
      math.max(2 * valEnv.db.length + 5, math.round(cfg.budgetFrac * Model.totalPoints(valEnv.db)).toInt)
    def validate(snapshot: (NetWeights, NetWeights)): Unit = {
      val (cubeW, pointW) = snapshot
      RL4QDTS.simplify(valEnv, valBudget, MLP.fromWeights(cubeW), MLP.fromWeights(pointW),
        seed = 17, RL4QDTS.Variant())
      // the env's incremental F1 of the result: bit-equal to re-running the
      // workload on it (QdtsEnvSpec)
      val f1 = valEnv.avgF1
      agents.valF1s :+= f1
      if (f1 > agents.bestValF1) {
        agents.bestValF1 = f1
        agents.bestCube = Some(cubeW)
        agents.bestPoint = Some(pointW)
      }
    }
    // the octree, its query counts and the ground truth depend only on
    // (db, workload): one env for every episode on a database
    def trainingEnv(dbIdx: Int): QdtsEnv =
      buildEnv(cfg, cfg.trajsPerDb, cfg.seed + 1000L * (dbIdx + 1), cfg.seed + dbIdx)

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

    /** `env`'s episodes, each one's snapshot of both nets in episode order. */
    def episodes(env: QdtsEnv): Vector[(NetWeights, NetWeights)] = {
      val n = Model.totalPoints(env.db)
      val budget = math.max(2 * env.db.length, math.round(cfg.budgetFrac * n).toInt)
      Vector.fill(cfg.episodesPerDb) {
        env.reset()
        var sinceWindow = 0
        val target = math.min(budget.toLong, n).toInt

        def flushWindow(): Unit = {
          // take learning steps on the replay memories — the paper's Δ-cadence
          // of "perform the queries, acquire rewards"; the two learners share
          // no state, so they learn as two tasks, the longer cube one first,
          // both finished before the next window acts
          Par.all(Seq(agents.cube, agents.point).map(dqn => () => {
            var i = 0
            while (i < cfg.trainStepsPerWindow) { dqn.trainStep(); i += 1 }
          }))
          // ε decays per reward window (the paper's 0.99 decay is per update,
          // not per episode — episodes here are far shorter than the paper's)
          agents.cube.decayEpsilon()
          agents.point.decayEpsilon()
          sinceWindow = 0
        }

        // diff of the current D': the previous step's `after`
        var before = env.diff
        while (env.insertedCount < target) {
          RL4QDTS.step(env, rng, RL4QDTS.Variant(), cubeAction, pointAction)
          // this insertion's own F1 improvement; the window's rewards
          // telescope to the Eq. 10 window reward, so the accumulated
          // objective of Eq. 11 is unchanged, but each decision of both
          // agents is credited with the gain it actually produced; the deltas
          // are small, so they are scaled by 100 for gradient signal
          val after = env.diff
          val r = (before - after) * 100.0
          before = after
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
        (agents.cube.online.snapshot, agents.point.online.snapshot)
      }
    }

    // database i's episodes, the longer task, first; beside them database
    // i-1's validations and database i+1's env
    var env = if (cfg.nDbs > 0) trainingEnv(0) else null
    var snapshots = Vector.empty[(NetWeights, NetWeights)]
    for (dbIdx <- 0 until cfg.nDbs) {
      val previous = snapshots
      var next: QdtsEnv = null
      Par.all(Seq(() => snapshots = episodes(env), () => {
        previous.foreach(validate)
        if (dbIdx + 1 < cfg.nDbs) next = trainingEnv(dbIdx + 1)
      }))
      env = next
    }
    snapshots.foreach(validate)
    agents
  }
}
