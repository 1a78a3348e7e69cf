package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/activeiter/activeiter"
	"github.com/activeiter/activeiter/internal/eval"
)

// Alignment protocol shared by both align-* workloads: the paper's
// k-fold protocol (one fold trains, the others test) with γ = 0.6,
// budget 100 in batches of 5 and the conflict strategy. Jobs cycle
// over the first cycleFolds folds, so every run repeats folds and the
// per-fold digest is checked job against job.
const (
	kFolds     = 10
	cycleFolds = 4
	gamma      = 0.6
	budget     = 100
	batchSize  = 5
)

// alignSpec names the dataset and facade of one align-* workload.
type alignSpec struct {
	name        string
	data        func(seed int64) activeiter.GeneratorConfig
	theta       int  // sampled negatives per anchor (the NP-ratio)
	distributed bool // DistributedAligner (Partitions 4, Rounds 2) instead of a fresh Aligner per job
}

// crawlConfig is FullScaleDataset with users, anchors and locations
// scaled to 3/10: 1566/1617 users and 984 anchors.
func crawlConfig(seed int64) activeiter.GeneratorConfig {
	c := activeiter.FullScaleDataset()
	c.Users1 = c.Users1 * 3 / 10
	c.Users2 = c.Users2 * 3 / 10
	c.AnchorCount = c.AnchorCount * 3 / 10
	c.Locations = c.Locations * 3 / 10
	c.Seed = seed
	return c
}

func paperConfig(seed int64) activeiter.GeneratorConfig {
	c := activeiter.PaperShapeDataset()
	c.Seed = seed
	return c
}

var (
	crawlSpec = alignSpec{name: "align-crawl-cold", data: crawlConfig, theta: 5}
	paperSpec = alignSpec{name: "align-paper-rounds", data: paperConfig, theta: 50, distributed: true}
)

// alignEnv is one generated pair with its folds and, for the
// distributed workload, the aligner reused across folds.
type alignEnv struct {
	spec   alignSpec
	seed   int64
	pair   *activeiter.AlignedPair
	splits []eval.Split
	opts   activeiter.Options
	oracle activeiter.Oracle
	dist   *activeiter.DistributedAligner
	genS   float64
}

func newAlignEnv(spec alignSpec, seed int64, l *spanLog) (*alignEnv, error) {
	t0 := time.Now()
	sp := l.start("datagen", "datagen.generate")
	pair, err := activeiter.GenerateDataset(spec.data(seed))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("generate %s pair: %w", spec.name, err)
	}
	genS := secs(time.Since(t0))
	rng := rand.New(rand.NewSource(seed))
	neg, err := activeiter.SampleNegatives(pair, spec.theta*len(pair.Anchors), rng)
	if err != nil {
		return nil, fmt.Errorf("sample negatives: %w", err)
	}
	splits, err := eval.KFoldSplits(pair.Anchors, neg, kFolds, gamma, rng)
	if err != nil {
		return nil, fmt.Errorf("fold splits: %w", err)
	}
	e := &alignEnv{
		spec: spec, seed: seed, pair: pair, splits: splits,
		opts: activeiter.Options{
			Budget: budget, BatchSize: batchSize,
			Strategy: activeiter.StrategyConflict, Seed: seed,
		},
		oracle: activeiter.NewTruthOracle(pair),
		genS:   genS,
	}
	if spec.distributed {
		e.opts.Partitions = 4
		e.opts.Rounds = 2
		if e.dist, err = activeiter.NewDistributed(pair, e.opts, activeiter.NewLoopbackTransport()); err != nil {
			return nil, fmt.Errorf("distributed aligner: %w", err)
		}
	}
	return e, nil
}

// candidates is the fold's unlabeled pool: training negatives plus both
// test pools (the training positives are added by the aligner).
func candidates(s eval.Split) []activeiter.Anchor {
	out := make([]activeiter.Anchor, 0, len(s.TrainNeg)+len(s.TestPos)+len(s.TestNeg))
	out = append(out, s.TrainNeg...)
	out = append(out, s.TestPos...)
	return append(out, s.TestNeg...)
}

// jobResult is what one alignment job leaves behind for the checks.
type jobResult struct {
	fold     int
	wall     time.Duration
	digest   digest
	snap     *activeiter.Snapshot
	snapSize int64
}

// runJob is one untraced job through the public facade: align the
// fold, build the serving snapshot and write it to path. The crawl
// workload builds a fresh Aligner every time (cold counting); the
// distributed workload reuses its aligner.
func (e *alignEnv) runJob(fold int, path string) (*jobResult, error) {
	s := e.splits[fold]
	cands := candidates(s)
	t0 := time.Now()
	var (
		res    activeiter.AlignmentResult
		facade string
	)
	if e.dist != nil {
		r, err := e.dist.Align(s.TrainPos, cands, e.oracle)
		if err != nil {
			return nil, fmt.Errorf("fold %d: distributed align: %w", fold, err)
		}
		res, facade = r, activeiter.SnapshotDistributed
	} else {
		a, err := activeiter.New(e.pair, e.opts)
		if err != nil {
			return nil, fmt.Errorf("fold %d: new aligner: %w", fold, err)
		}
		r, err := a.Align(s.TrainPos, cands, e.oracle)
		if err != nil {
			return nil, fmt.Errorf("fold %d: align: %w", fold, err)
		}
		res, facade = r, activeiter.SnapshotMonolithic
	}
	snap, err := activeiter.BuildSnapshot(facade, e.pair, res, e.opts)
	if err != nil {
		return nil, fmt.Errorf("fold %d: build snapshot: %w", fold, err)
	}
	snap.Meta.CreatedUnix = createdStamp(e.seed)
	if err := activeiter.WriteSnapshot(snap, path); err != nil {
		return nil, fmt.Errorf("fold %d: write snapshot: %w", fold, err)
	}
	wall := time.Since(t0)
	size, err := fileSize(path)
	if err != nil {
		return nil, err
	}
	d, err := e.facadeDigest(fold, res)
	if err != nil {
		return nil, err
	}
	return &jobResult{fold: fold, wall: wall, digest: d, snap: snap, snapSize: size}, nil
}

// digest is the deterministic outcome of one job: quality on the test
// pools, the oracle spend, and a hash of the predicted anchors and
// queried links. Equal inputs must give equal digests.
type digest struct {
	F1             float64
	TP, FP, TN, FN int
	Queries        int
	Hash           uint64
}

func (d digest) String() string {
	return fmt.Sprintf("f1=%.12g tp=%d fp=%d tn=%d fn=%d q=%d h=%016x", d.F1, d.TP, d.FP, d.TN, d.FN, d.Queries, d.Hash)
}

// alignOutput is the read side both facades' results share.
type alignOutput interface {
	activeiter.AlignmentResult
	PredictedAnchors() []activeiter.Anchor
	QueryCount() int
}

type labeledLink struct {
	link  activeiter.Anchor
	label float64
}

// facadeDigest digests a facade result (*Result or *PartitionedResult).
func (e *alignEnv) facadeDigest(fold int, res activeiter.AlignmentResult) (digest, error) {
	var queried []labeledLink
	var out alignOutput
	switch r := res.(type) {
	case *activeiter.Result:
		for _, q := range r.Raw().Queried {
			queried = append(queried, labeledLink{q.Link, q.Label})
		}
		out = r
	case *activeiter.PartitionedResult:
		for _, q := range r.QueriedLabels() {
			queried = append(queried, labeledLink{q.Link, q.Label})
		}
		out = r
	default:
		return digest{}, fmt.Errorf("digest of unexpected result type %T", res)
	}
	return e.digestFor(fold, out, out.PredictedAnchors(), queried, out.QueryCount()), nil
}

// digestFor scores res on the fold's test pools and hashes the sorted
// predicted anchors and queried links.
func (e *alignEnv) digestFor(fold int, res activeiter.AlignmentResult, predicted []activeiter.Anchor, queried []labeledLink, queries int) digest {
	s := e.splits[fold]
	m := activeiter.EvaluateAlignment(res, s.TestPos, s.TestNeg)
	p := append([]activeiter.Anchor(nil), predicted...)
	sort.Slice(p, func(a, b int) bool { return less(p[a], p[b]) })
	q := append([]labeledLink(nil), queried...)
	sort.Slice(q, func(a, b int) bool { return less(q[a].link, q[b].link) })
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(len(p)))
	for _, a := range p {
		put(uint64(a.I))
		put(uint64(a.J))
	}
	put(uint64(len(q)))
	for _, l := range q {
		put(uint64(l.link.I))
		put(uint64(l.link.J))
		put(math.Float64bits(l.label))
	}
	return digest{F1: m.F1, TP: m.TP, FP: m.FP, TN: m.TN, FN: m.FN, Queries: queries, Hash: h.Sum64()}
}

func less(a, b activeiter.Anchor) bool {
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

// retainedHeap is the live heap after a forced collection once counting
// is done: for the crawl workload a fresh counter counted for fold 1
// (what each job holds while it trains), for the paper workload the
// warm aligner as it stands between jobs.
func (e *alignEnv) retainedHeap() (float64, error) {
	if e.dist != nil {
		return liveHeapMiB(), nil
	}
	a, err := activeiter.New(e.pair, e.opts)
	if err != nil {
		return 0, err
	}
	// CandidatePairs counts the pair under the fold's anchors, the same
	// SetAnchors + Recompute an Align call starts with.
	if _, err := a.CandidatePairs(e.splits[1].TrainPos, 1); err != nil {
		return 0, err
	}
	heap := liveHeapMiB()
	runtime.KeepAlive(a)
	return heap, nil
}

// createdStamp is the creation time every artifact of a run is stamped
// with. It is part of the artifact's checksum, whose encoded length
// varies with its value, so with a wall-clock stamp neither the artifact
// bytes nor the shard and sync bytes derived from it would be a function
// of the seed alone.
func createdStamp(seed int64) int64 { return 1_600_000_000 + seed }
