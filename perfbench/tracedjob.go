package main

import (
	"fmt"
	"math"
	"time"

	"github.com/activeiter/activeiter"
	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/distrib"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/linalg"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/snapshot"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// The traced run makes the layer calls the facades make, one layer at
// a time, with a span around each: activeiter.New + Aligner.Align for
// the crawl workload, DistributedAligner.Align (sessions, Rounds 2) for
// the paper workload, then BuildSnapshot and WriteSnapshot. Its digest
// must equal the facade job's on the same fold.

// Process-wide work counters (the registry returns the existing series
// for a registered name).
var (
	cFlops    = telemetry.Default.Counter("activeiter_spgemm_flops_total", "Gustavson SpGEMM multiply-adds performed by meta-diagram chain products.")
	cMdHits   = telemetry.Default.Counter("activeiter_metadiag_cache_hits_total", "Meta-diagram count-matrix cache hits (shared and anchored layers).")
	cMdMisses = telemetry.Default.Counter("activeiter_metadiag_cache_misses_total", "Meta-diagram count evaluations — cache misses that ran the SpGEMM chain.")
)

// layerJob is the per-layer account of one traced job.
type layerJob struct {
	res       *jobResult
	countS    float64 // metadiag spans (crawl) — counting runs in worker prepare spans on the paper workload
	matrixS   float64 // features spans: the feature matrix (crawl), worker prepare (paper)
	trainS    float64
	planS     float64
	roundS    float64
	buildS    float64
	writeS    float64
	mdAlloc   float64 // MiB allocated in the counting calls (crawl)
	coreAlloc float64 // MiB allocated in core.Train (crawl) or the session rounds (paper)
	gcCPU     float64
	flops     int64
	mdHits    int64
	mdMiss    int64
	queries   int
	dm        *distrib.Metrics
	overlap   float64
	cands     int
}

// tracedEnv holds the traced path's own warm state for the paper
// workload: the base counter and planner the facade keeps unexported.
type tracedEnv struct {
	base    *metadiag.Counter
	planner *partition.Planner
}

func newTracedEnv(e *alignEnv) (*tracedEnv, error) {
	if e.dist == nil {
		return &tracedEnv{}, nil
	}
	base, err := metadiag.NewCounter(e.pair)
	if err != nil {
		return nil, err
	}
	planner, err := partition.NewPlanner(base)
	if err != nil {
		return nil, err
	}
	return &tracedEnv{base: base, planner: planner}, nil
}

func (e *alignEnv) trainConfig() distrib.TrainConfig {
	return distrib.TrainConfig{
		FeatureSet: distrib.FeaturesFull,
		Strategy:   distrib.StrategyConflict,
		BatchSize:  e.opts.BatchSize,
		Seed:       e.opts.Seed,
	}
}

// timed runs fn inside a span and returns its seconds.
func timed(l *spanLog, parent uint64, layer, name string, fn func() error) (float64, error) {
	sp := l.child(parent, layer, name)
	t := time.Now()
	err := fn()
	d := secs(time.Since(t))
	sp.end()
	return d, err
}

func (e *alignEnv) tracedJob(te *tracedEnv, fold int, path string, l *spanLog) (*layerJob, error) {
	s := e.splits[fold]
	cands := candidates(s)
	lj := &layerJob{}
	flops0, hits0, miss0 := cFlops.Value(), cMdHits.Value(), cMdMisses.Value()
	p0 := probe()
	t0 := time.Now()
	job := l.child(0, "job", "job")
	var (
		res       activeiter.AlignmentResult
		predicted []activeiter.Anchor
		queried   []labeledLink
		snap      *snapshot.Snapshot
	)
	meta := snapshot.Meta{
		CreatedUnix: createdStamp(e.seed),
		Features:    "full",
		Strategy:    string(activeiter.StrategyConflict),
		Threshold:   0.5,
		Seed:        e.opts.Seed,
		Budget:      e.opts.Budget,
		BatchSize:   e.opts.BatchSize,
		Partitions:  e.opts.Partitions,
		Rounds:      e.opts.Rounds,
	}
	if te.base == nil {
		feats := schema.StandardLibrary().All()
		var counter *metadiag.Counter
		var ext *metadiag.Extractor
		pa := probe()
		d, err := timed(l, job.id(), "metadiag", "metadiag.new_counter", func() error {
			var err error
			counter, err = metadiag.NewCounter(e.pair)
			ext = metadiag.NewExtractor(counter, feats, true)
			return err
		})
		if err != nil {
			return nil, err
		}
		lj.countS += d
		if d, err = timed(l, job.id(), "metadiag", "metadiag.count", func() error {
			counter.SetAnchors(s.TrainPos)
			return ext.Recompute()
		}); err != nil {
			return nil, err
		}
		lj.countS += d
		lj.mdAlloc, _ = probe().since(pa)
		links := poolLinks(s.TrainPos, cands)
		var x *linalg.Dense
		if lj.matrixS, err = timed(l, job.id(), "features", "features.matrix", func() error {
			var err error
			x, err = ext.FeatureMatrix(links)
			return err
		}); err != nil {
			return nil, err
		}
		labeled := make([]int, len(s.TrainPos))
		for i := range labeled {
			labeled[i] = i
		}
		var cres *core.Result
		pc := probe()
		if lj.trainS, err = timed(l, job.id(), "core", "core.train", func() error {
			var err error
			cres, err = core.Train(core.Problem{Links: links, X: x, LabeledPos: labeled, Oracle: e.oracle},
				core.Config{Budget: e.opts.Budget, BatchSize: e.opts.BatchSize, Strategy: active.Conflict{}, Seed: e.opts.Seed})
			return err
		}); err != nil {
			return nil, err
		}
		lj.coreAlloc, _ = probe().since(pc)
		for idx, ln := range links {
			if cres.Y[idx] == 1 {
				predicted = append(predicted, ln)
			}
		}
		for _, q := range cres.Queried {
			queried = append(queried, labeledLink{q.Link, q.Label})
		}
		res = coreResult{cres}
		lj.queries = cres.QueryCount()
		meta.Facade = activeiter.SnapshotMonolithic
		meta.Notation = ext.Names()
		if lj.buildS, err = timed(l, job.id(), "snapshot", "snapshot.build", func() error {
			var err error
			snap, err = buildMonolithic(e.pair, meta, cres, links)
			return err
		}); err != nil {
			return nil, err
		}
	} else {
		var plan *partition.Plan
		var err error
		if lj.planS, err = timed(l, job.id(), "partition", "partition.plan", func() error {
			var err error
			plan, err = te.planner.Plan(s.TrainPos, cands, e.opts.Budget, partition.Config{K: e.opts.Partitions})
			return err
		}); err != nil {
			return nil, err
		}
		lj.overlap = float64(plan.Candidates()) / float64(len(cands))
		lj.cands = len(cands)
		var sess *distrib.Session
		if _, err = timed(l, job.id(), "distrib", "distrib.new_session", func() error {
			var err error
			sess, err = distrib.NewSession(distrib.Loopback{}, e.pair, distrib.Options{
				Train: e.trainConfig(), Base: te.base, Tracer: l.tr,
			})
			return err
		}); err != nil {
			return nil, err
		}
		var pres *partition.Result
		var reports []partition.PartReport
		pr := probe()
		for round := 0; round < e.opts.Rounds; round++ {
			plan.Rebudget(partition.RoundBudget(e.opts.Budget, e.opts.Rounds, round))
			d, err := timed(l, job.id(), "distrib", "distrib.round", func() error {
				var err error
				pres, _, err = sess.Run(plan, e.oracle)
				return err
			})
			if err != nil {
				sess.Close()
				return nil, err
			}
			lj.roundS += d
			reports = append(reports, pres.Reports...)
			if round < e.opts.Rounds-1 {
				plan.AppendLabels(pres.QueriedLabels())
			}
		}
		lj.coreAlloc, _ = probe().since(pr)
		pres.Reports = reports
		lj.dm = sess.Metrics()
		if _, err = timed(l, job.id(), "distrib", "distrib.close", sess.Close); err != nil {
			return nil, err
		}
		predicted = pres.PredictedAnchors()
		for _, q := range pres.QueriedLabels() {
			queried = append(queried, labeledLink{q.Link, q.Label})
		}
		res = pres
		lj.queries = pres.QueryCount()
		meta.Facade = activeiter.SnapshotDistributed
		meta.Notation = notation()
		if lj.buildS, err = timed(l, job.id(), "snapshot", "snapshot.build", func() error {
			var err error
			snap, err = buildSharded(e.pair, meta, pres)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var err error
	if lj.writeS, err = timed(l, job.id(), "snapshot", "snapshot.write", func() error { return snap.WriteFile(path) }); err != nil {
		return nil, err
	}
	job.end()
	wall := time.Since(t0)
	_, lj.gcCPU = probe().since(p0)
	lj.flops = cFlops.Value() - flops0
	lj.mdHits = cMdHits.Value() - hits0
	lj.mdMiss = cMdMisses.Value() - miss0
	size, err := fileSize(path)
	if err != nil {
		return nil, err
	}
	lj.res = &jobResult{fold: fold, wall: wall, snap: snap, snapSize: size,
		digest: e.digestFor(fold, res, predicted, queried, lj.queries)}
	return lj, nil
}

// poolLinks is the facade's pool: training positives first, then the
// candidates, de-duplicated.
func poolLinks(trainPos, cands []hetnet.Anchor) []hetnet.Anchor {
	links := make([]hetnet.Anchor, 0, len(trainPos)+len(cands))
	links = append(links, trainPos...)
	seen := make(map[int64]bool, len(trainPos)+len(cands))
	for _, l := range trainPos {
		seen[hetnet.Key(l.I, l.J)] = true
	}
	for _, l := range cands {
		if k := hetnet.Key(l.I, l.J); !seen[k] {
			seen[k] = true
			links = append(links, l)
		}
	}
	return links
}

// coreResult adapts a core.Result to the evaluation contract.
type coreResult struct{ r *core.Result }

func (c coreResult) Label(i, j int) (float64, bool) { return c.r.LabelOf(i, j) }
func (c coreResult) WasQueried(i, j int) bool       { return c.r.WasQueried(i, j) }

func notation() []string {
	feats := schema.StandardLibrary().All()
	out := make([]string, 0, len(feats)+1)
	for _, f := range feats {
		out = append(out, f.ID)
	}
	return append(out, "BIAS")
}

// buildMonolithic freezes a monolithic training result the way
// activeiter.BuildSnapshot does.
func buildMonolithic(pair *hetnet.AlignedPair, meta snapshot.Meta, res *core.Result, links []hetnet.Anchor) (*snapshot.Snapshot, error) {
	model := snapshot.Model{W: append([]float64(nil), res.W...)}
	var pool []snapshot.PoolLink
	var matches []snapshot.Match
	var labels []snapshot.QueriedLabel
	for idx, l := range links {
		score := res.Scores[idx]
		pool = append(pool, snapshot.PoolLink{
			I: int32(l.I), J: int32(l.J), Label: res.Y[idx], Score: score,
			HasScore: !math.IsNaN(score), Queried: res.WasQueried(l.I, l.J),
		})
		if res.Y[idx] == 1 {
			matches = append(matches, snapshot.Match{I: int32(l.I), J: int32(l.J), Score: score, HasScore: !math.IsNaN(score)})
		}
	}
	for _, q := range res.Queried {
		labels = append(labels, snapshot.QueriedLabel{I: int32(q.Link.I), J: int32(q.Link.J), Label: q.Label})
	}
	return snapshot.Build(pair, meta, model, pool, matches, labels, snapshot.DefaultTopK)
}

// buildSharded freezes a sharded result the way activeiter.BuildSnapshot
// does.
func buildSharded(pair *hetnet.AlignedPair, meta snapshot.Meta, r *partition.Result) (*snapshot.Snapshot, error) {
	var model snapshot.Model
	var pool []snapshot.PoolLink
	var matches []snapshot.Match
	var labels []snapshot.QueriedLabel
	for shard, w := range r.ShardWeights {
		if len(w) == 0 {
			return nil, fmt.Errorf("shard %d carries no trained weights", shard)
		}
		model.Shards = append(model.Shards, snapshot.ShardModel{Shard: shard, W: append([]float64(nil), w...)})
	}
	for _, e := range r.Entries() {
		pool = append(pool, snapshot.PoolLink{
			I: int32(e.Link.I), J: int32(e.Link.J), Label: e.Label, Score: e.Score, HasScore: e.HasScore, Queried: e.Queried,
		})
	}
	for _, a := range r.PredictedAnchors() {
		score, hasScore := r.Score(a.I, a.J)
		matches = append(matches, snapshot.Match{I: int32(a.I), J: int32(a.J), Score: score, HasScore: hasScore})
	}
	for _, l := range r.QueriedLabels() {
		labels = append(labels, snapshot.QueriedLabel{I: int32(l.Link.I), J: int32(l.Link.J), Label: l.Label})
	}
	return snapshot.Build(pair, meta, model, pool, matches, labels, snapshot.DefaultTopK)
}
