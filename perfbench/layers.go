package main

import (
	"fmt"
	"time"
)

// layerTotals gathers a traced run's per-layer figures.
type layerTotals struct {
	genS         float64
	since        int64 // unix nanoseconds the timed phase started
	jobs         []*layerJob
	reshards     []reshardStats
	overheadS    float64 // traced minus untraced job time, paired on the same input
	lagP99       float64
	readP50      []float64 // steady-read median at each fixed rate
	readP99      []float64 // steady-read p99 at each fixed rate
	midP99       []float64 // p99 of the reads overlapping a reshard, per rate
	kindP50      []float64 // steady-read median per request kind, over all rates
	kindP99      []float64 // steady-read p99 per request kind, over all rates
	refusals     int64
	wrongMid     int
	retainedHeap float64

	maxRate                                float64 // capacity search result, 1/s
	indexUs, httpMs, hopMs, fanP50, fanP99 float64
	openS                                  float64
}

func (lt *layerTotals) add(lj *layerJob) { lt.jobs = append(lt.jobs, lj) }

// perJob is the median over traced jobs of f.
func (lt *layerTotals) perJob(f func(*layerJob) float64) float64 {
	if len(lt.jobs) == 0 {
		return 0
	}
	xs := make([]float64, len(lt.jobs))
	for i, j := range lt.jobs {
		xs[i] = f(j)
	}
	return median(xs)
}

// probeServing times the serving layers directly, outside the open
// loop: Index lookups in process, a request straight to the owning
// shard against the same request through the router, and fan-out
// reads through the router.
func (lt *layerTotals) probeServing(r *run, f *fleetEnv) error {
	ix := f.monoIx
	const batch = 256
	var per []float64
	for b := 0; b < 64; b++ {
		t := time.Now()
		for k := 0; k < batch; k++ {
			q := f.reqs[(b*batch+k)%len(f.reqs)]
			switch q.kind {
			case "match1":
				ix.MatchFor(1, q.i)
			case "cand1k":
				ix.CandidatesFor(1, q.i, 5)
			default:
				ix.CandidatesFor(1, q.i, 0)
			}
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/1e3/batch)
	}
	lt.indexUs = median(per)

	var direct, routed []float64
	for i := 0; len(direct) < 1000 && i < len(f.reqs); i++ {
		q := f.reqs[i]
		if q.kind != "match1" {
			continue
		}
		t := time.Now()
		if err := f.do(f.ownerBackend(q.i), q); err != nil {
			r.mismatch("direct shard read: %v", err)
			return nil
		}
		direct = append(direct, millis(time.Since(t)))
		t = time.Now()
		if err := f.do(f.rsrv.url, q); err != nil {
			r.mismatch("routed read: %v", err)
			return nil
		}
		routed = append(routed, millis(time.Since(t)))
	}
	lt.httpMs = median(direct)
	lt.hopMs = median(routed) - median(direct)

	fan, err := f.directProbe(f.rsrv.url, map[string]bool{"match2": true, "cand2": true}, 1200)
	if err != nil {
		r.mismatch("fan-out read: %v", err)
		return nil
	}
	lt.fanP50, lt.fanP99 = median(fan), quantile(fan, 0.99)
	lt.openS = f.openS
	return nil
}

// report sets every per-layer metric. Layers a workload does not
// exercise in its timed phase report zero work.
func (lt *layerTotals) report(r *run) {
	sum := r.spans.summarize(lt.since)
	nj := float64(len(lt.jobs))
	perJobSpan := func(name string) float64 {
		if nj == 0 {
			return 0
		}
		var t float64
		for _, d := range sum.byName[name] {
			t += d
		}
		return t / nj
	}
	paper := len(lt.jobs) > 0 && lt.jobs[0].dm != nil

	r.set("datagen.gen_s", lt.genS, "s")

	r.set("metadiag.count_s", lt.perJob(func(j *layerJob) float64 { return j.countS }), "s")
	r.set("metadiag.spgemm_flops", lt.perJob(func(j *layerJob) float64 { return float64(j.flops) }), "count")
	r.set("metadiag.alloc_mib", lt.perJob(func(j *layerJob) float64 { return j.mdAlloc }), "MiB")
	r.set("runtime.gc_cpu_s", lt.perJob(func(j *layerJob) float64 { return j.gcCPU }), "s")
	r.set("metadiag.retained_heap_mib", lt.retainedHeap, "MiB")
	lookups := lt.perJob(func(j *layerJob) float64 { return float64(j.mdHits + j.mdMiss) })
	r.set("metadiag.cache_lookups", lookups, "count")
	r.set("metadiag.cache_hit_ratio", lt.perJob(func(j *layerJob) float64 {
		if j.mdHits+j.mdMiss == 0 {
			return 0
		}
		return float64(j.mdHits) / float64(j.mdHits+j.mdMiss)
	}), "ratio")

	matrix := lt.perJob(func(j *layerJob) float64 { return j.matrixS })
	train := lt.perJob(func(j *layerJob) float64 { return j.trainS })
	if paper {
		// Worker-side spans recorded by the distrib layer: prepare covers
		// the seeded fork, its counting and the feature matrix.
		matrix, train = perJobSpan("prepare"), perJobSpan("train")
	}
	r.set("features.matrix_s", matrix, "s")
	r.set("core.train_s", train, "s")
	r.set("core.alloc_mib", lt.perJob(func(j *layerJob) float64 { return j.coreAlloc }), "MiB")
	r.set("core.oracle_queries", lt.perJob(func(j *layerJob) float64 { return float64(j.queries) }), "count")

	r.set("partition.plan_s", lt.perJob(func(j *layerJob) float64 { return j.planS }), "s")
	r.set("partition.merge_s", perJobSpan("reconcile"), "s")
	r.set("partition.pool_overlap", lt.perJob(func(j *layerJob) float64 { return j.overlap }), "ratio")
	r.set("partition.candidates", lt.perJob(func(j *layerJob) float64 { return float64(j.cands) }), "count")

	dm := func(f func(j *layerJob) float64) float64 {
		return lt.perJob(func(j *layerJob) float64 {
			if j.dm == nil {
				return 0
			}
			return f(j)
		})
	}
	r.set("distrib.round_s", lt.perJob(func(j *layerJob) float64 { return j.roundS }), "s")
	r.set("distrib.job_bytes", dm(func(j *layerJob) float64 { return float64(j.dm.JobBytes) }), "bytes")
	r.set("distrib.delta_bytes", dm(func(j *layerJob) float64 { return float64(j.dm.DeltaBytes) }), "bytes")
	r.set("distrib.seed_bytes", dm(func(j *layerJob) float64 { return float64(j.dm.SeedBytes) }), "bytes")
	r.set("distrib.cache_lookups", dm(func(j *layerJob) float64 { return float64(j.dm.CacheHits + j.dm.CacheMisses) }), "count")
	r.set("distrib.cache_hit_ratio", dm(func(j *layerJob) float64 {
		if n := j.dm.CacheHits + j.dm.CacheMisses; n > 0 {
			return float64(j.dm.CacheHits) / float64(n)
		}
		return 0
	}), "ratio")
	r.set("distrib.retries", dm(func(j *layerJob) float64 { return float64(j.dm.Retries) }), "count")
	r.set("distrib.fallbacks", dm(func(j *layerJob) float64 { return float64(j.dm.Fallbacks) }), "count")

	r.set("snapshot.build_s", lt.perJob(func(j *layerJob) float64 { return j.buildS }), "s")
	r.set("snapshot.write_s", lt.perJob(func(j *layerJob) float64 { return j.writeS }), "s")
	r.set("snapshot.bytes", lt.perJob(func(j *layerJob) float64 { return float64(j.res.snapSize) }), "bytes")
	r.set("snapshot.open_s", lt.openS, "s")

	var split, pull, wire, full, notReady []float64
	for _, st := range lt.reshards {
		split = append(split, secs(st.split))
		pull = append(pull, secs(st.pull))
		wire = append(wire, float64(st.wireBytes))
		full = append(full, float64(st.fullBytes))
		if st.polled {
			notReady = append(notReady, secs(st.notReady))
		}
	}
	r.set("snapshot.split_s", medianOr0(split), "s")
	nr := float64(len(lt.reshards))
	var reload float64
	for _, d := range sum.byName["serve.reload"] {
		reload += d
	}
	if nr > 0 {
		reload /= nr
	}
	r.set("serve.index_us.p50", lt.indexUs, "us")
	r.set("serve.http_ms.p50", lt.httpMs, "ms")
	r.set("serve.reload_s", reload, "s")
	r.set("fleet.hop_ms.p50", lt.hopMs, "ms")
	r.set("fleet.fanout_ms.p50", lt.fanP50, "ms")
	r.set("fleet.fanout_ms.p99", lt.fanP99, "ms")
	r.set("fleet.not_ready_s", medianOr0(notReady), "s")
	r.set("fleet.refusals", float64(lt.refusals), "count")
	r.set("fleet.wrong_mid_rollout", float64(lt.wrongMid), "count")
	r.set("fleet.mid_reshard_ms.p99", medianOr0(lt.midP99), "ms")
	r.set("setsync.pull_s", medianOr0(pull), "s")
	r.set("setsync.wire_bytes", medianOr0(wire), "bytes")
	r.set("setsync.full_bytes", medianOr0(full), "bytes")
	frac := 0.0
	if f := medianOr0(full); f > 0 {
		frac = medianOr0(wire) / f
	}
	r.set("setsync.wire_frac", frac, "ratio")
	r.set("loadgen.lag_ms.p99", lt.lagP99, "ms")
	r.set("max_rate_rps", lt.maxRate, "1/s")
	for k := range lt.readP99 {
		r.set(fmt.Sprintf("read_ms.p50.r%d", k+1), lt.readP50[k], "ms")
		r.set(fmt.Sprintf("read_ms.p99.r%d", k+1), lt.readP99[k], "ms")
	}
	for k, kind := range readKinds {
		r.set("read_ms.p50."+kind, lt.kindP50[k], "ms")
		r.set("read_ms.p99."+kind, lt.kindP99[k], "ms")
	}

	for _, l := range layers {
		r.set(l+".self_s", sum.selfS[l], "s")
	}
	cov := 1.0
	for _, c := range sum.coverage {
		if c < cov {
			cov = c
		}
	}
	if len(sum.coverage) == 0 {
		cov = 0
	}
	r.set("trace.coverage_min", cov, "ratio")
	if cov < 0.9 {
		r.mismatch("layer spans cover only %.1f%% of a traced job's wall time", 100*cov)
	}
	if lt.jobs == nil {
		// The serve workload's jobs are its reshards, paired by the layout
		// they go to.
		plain, traced := map[int][]float64{}, map[int][]float64{}
		for _, st := range lt.reshards {
			if st.traced {
				traced[st.target] = append(traced[st.target], secs(st.job))
			} else {
				plain[st.target] = append(plain[st.target], secs(st.job))
			}
		}
		lt.overheadS = pairedOverhead(plain, traced)
	}
	r.set("trace.overhead_s", lt.overheadS, "s")
	r.notef("traced jobs %d, job spans %d", int(nj)+countTraced(lt.reshards), len(sum.coverage))
}

// pairedOverhead is the tracing overhead of a job: the median, over the
// inputs (folds or target layouts) that ran both ways, of the median
// traced minus the median untraced job time on that input.
func pairedOverhead(plain, traced map[int][]float64) float64 {
	var diffs []float64
	for in, t := range traced {
		if p, ok := plain[in]; ok {
			diffs = append(diffs, median(t)-median(p))
		}
	}
	return medianOr0(diffs)
}

func countTraced(sts []reshardStats) int {
	n := 0
	for _, st := range sts {
		if st.traced {
			n++
		}
	}
	return n
}

func medianOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}
