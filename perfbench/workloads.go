package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

// Tuning of a run. The fixed read rates sit below the knee of the
// parent (see README.md); every workload reads at all three.
const (
	nSetups  = 3   // set-ups per run; setup_s is their median
	jobShare = 0.5 // share of an align-* run's timed phase spent on jobs
	capShare = 0.4 // capacity search time in a traced run, as a share of the serving time
)

var readRates = []float64{1200, 1600, 2000}

// goldenRaw holds the recorded per-fold digests of seeds 1-10:
// workload → seed → fold → digest string. serve-fleet-reshard trains
// the align-paper-rounds fold-0 artifact and is checked against it.
//
//go:embed digests.json
var goldenRaw []byte

var goldenDigests map[string]map[string]map[string]string

func loadGolden() error {
	if err := json.Unmarshal(goldenRaw, &goldenDigests); err != nil {
		return fmt.Errorf("recorded digests: %w", err)
	}
	return nil
}

func golden(workload string, seed int64, fold int) (string, bool) {
	d, ok := goldenDigests[workload][strconv.FormatInt(seed, 10)][strconv.Itoa(fold)]
	return d, ok
}

// checkDigest enforces the job output checks: the oracle spent exactly
// the budget, the digest repeats across jobs on the fold, and it
// matches the recorded digest for the seed when one is recorded.
func (r *run) checkDigest(spec alignSpec, seen map[int]digest, fold int, d digest, what string) {
	if d.Queries != budget {
		r.mismatch("%s fold %d: %d oracle queries, want the budget %d", what, fold, d.Queries, budget)
	}
	if prev, ok := seen[fold]; ok && prev != d {
		r.mismatch("%s fold %d: digest %s differs from an earlier job's %s", what, fold, d, prev)
	}
	seen[fold] = d
	if want, ok := golden(spec.name, r.seed, fold); ok && want != d.String() {
		r.mismatch("%s fold %d: digest %s, recorded %s", what, fold, d, want)
	}
}

// alignSetup is one set-up of an align-* or the serve workload:
// generate the pair, run the warm-up job on fold 0 and start the fleet
// serving its artifact.
type alignSetup struct {
	env   *alignEnv
	te    *tracedEnv
	warm  *jobResult
	fleet *fleetEnv
	secs  float64
}

func setupAlign(r *run, spec alignSpec, i int) (*alignSetup, error) {
	runtime.GC()
	t0 := time.Now()
	env, err := newAlignEnv(spec, r.seed, r.spans)
	if err != nil {
		return nil, err
	}
	warm, err := env.runJob(0, filepath.Join(r.dir, "warm.snap"))
	if err != nil {
		return nil, err
	}
	fl, err := startFleet(filepath.Join(r.dir, fmt.Sprintf("fleet-%d", i)), warm.snap, r.seed, r.spans)
	if err != nil {
		return nil, err
	}
	return &alignSetup{env: env, warm: warm, fleet: fl, secs: secs(time.Since(t0))}, nil
}

// setups runs nSetups set-ups and keeps the last; setup_s is the
// median.
func setups(r *run, spec alignSpec) (*alignSetup, error) {
	var last *alignSetup
	var times []float64
	seen := map[int]digest{}
	for i := 0; i < nSetups; i++ {
		if last != nil {
			last.fleet.close()
			last = nil
		}
		s, err := setupAlign(r, spec, i)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		r.checkDigest(spec, seen, 0, s.warm.digest, "warm-up")
		times = append(times, s.secs)
		last = s
	}
	if !r.traced {
		r.set("setup_s", median(times), "s")
	}
	r.notef("setup_s over %d set-ups: %v", len(times), times)
	return last, nil
}

func runAlign(r *run, spec alignSpec) error {
	s, err := setups(r, spec)
	if err != nil {
		return err
	}
	defer s.fleet.close()
	env := s.env
	seen := map[int]digest{0: s.warm.digest}
	var lt *layerTotals
	if r.traced {
		if s.te, err = newTracedEnv(env); err != nil {
			return err
		}
		lt = &layerTotals{}
		lt.genS = env.genS
		// The traced path's warm-up: its own base counter for the paper
		// workload, and a digest check of the layer-by-layer calls.
		lj, err := env.tracedJob(s.te, 0, filepath.Join(r.dir, "warm-traced.snap"), r.spans)
		if err != nil {
			return fmt.Errorf("traced warm-up: %w", err)
		}
		r.checkDigest(spec, seen, 0, lj.res.digest, "traced warm-up")
	}

	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	budgetS := jobShare * r.seconds
	t0 := time.Now()
	if lt != nil {
		lt.since = t0.UnixNano()
	}
	// With the warm-up fold every cycle fold runs at least once. A traced
	// run alternates whole cycles between the untraced and the traced
	// path, so every fold runs both ways.
	minJobs := cycleFolds - 1
	if r.traced {
		minJobs = 2 * cycleFolds
	}
	var walls []float64
	plainByFold, tracedByFold := map[int][]float64{}, map[int][]float64{}
	f1 := map[int]float64{0: s.warm.digest.F1}
	for i := 0; i < minJobs || secs(time.Since(t0)) < budgetS; i++ {
		fold := (i + 1) % cycleFolds
		path := filepath.Join(r.dir, fmt.Sprintf("job-%d.snap", i))
		r.attempted++
		if r.traced && (i/cycleFolds)%2 == 1 {
			lj, err := env.tracedJob(s.te, fold, path, r.spans)
			if err != nil {
				r.failed++
				return fmt.Errorf("traced job %d: %w", i, err)
			}
			r.checkDigest(spec, seen, fold, lj.res.digest, "traced job")
			tracedByFold[fold] = append(tracedByFold[fold], secs(lj.res.wall))
			lt.add(lj)
			continue
		}
		flops0, hits0, miss0 := cFlops.Value(), cMdHits.Value(), cMdMisses.Value()
		jr, err := env.runJob(fold, path)
		if err != nil {
			r.failed++
			return fmt.Errorf("job %d: %w", i, err)
		}
		if i == 0 {
			// Work counters of the first timed job (fold 1): exact
			// functions of the seed, compared run set against run set.
			r.counters["metadiag.spgemm_flops"] = cFlops.Value() - flops0
			r.counters["metadiag.cache_hits"] = cMdHits.Value() - hits0
			r.counters["metadiag.cache_misses"] = cMdMisses.Value() - miss0
			r.counters["core.oracle_queries"] = int64(jr.digest.Queries)
			if env.dist != nil {
				m := env.dist.Metrics()
				r.counters["distrib.job_bytes"] = m.JobBytes
				r.counters["distrib.delta_bytes"] = m.DeltaBytes
				r.counters["distrib.seed_bytes"] = m.SeedBytes
			}
		}
		r.checkDigest(spec, seen, fold, jr.digest, "job")
		walls = append(walls, secs(jr.wall))
		plainByFold[fold] = append(plainByFold[fold], secs(jr.wall))
		f1[fold] = jr.digest.F1
		if _, ok := r.counters["snapshot.bytes"]; !ok {
			r.counters["snapshot.bytes"] = jr.snapSize
		}
	}
	for fold := 0; fold < cycleFolds; fold++ {
		d, ok := seen[fold]
		if !ok {
			return fmt.Errorf("fold %d never ran", fold)
		}
		r.counters[fmt.Sprintf("digest.fold%d", fold)] = int64(d.Hash >> 1)
		r.notef("digest fold %d %s", fold, d)
	}
	var f1sum float64
	for _, v := range f1 {
		f1sum += v
	}
	if !r.traced {
		r.set("job_s.p50", median(walls), "s")
		tail, q := tailQuantile(walls)
		r.set("job_s.tail", tail, "s")
		r.set("f1", f1sum/float64(len(f1)), "ratio")
		r.notef("job_s over %d jobs (tail is p%.0f): %v", len(walls), q*100, walls)
	}
	if r.traced {
		if lt.retainedHeap, err = env.retainedHeap(); err != nil {
			return err
		}
		runtime.KeepAlive(s.te)
	}
	if err := r.servePhase(s.fleet, (1-jobShare)*r.seconds, nil, lt); err != nil {
		return err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	if r.traced {
		lt.overheadS = pairedOverhead(plainByFold, tracedByFold)
		lt.report(r)
		return nil
	}
	r.set("peak_rss_mib", rss, "MiB")
	return nil
}

func runServe(r *run) error {
	s, err := setups(r, paperSpec)
	if err != nil {
		return err
	}
	defer s.fleet.close()
	genS := s.env.genS
	var f1 float64
	if !r.traced {
		if f1, err = r.meanF1(paperSpec, s); err != nil {
			return err
		}
	}
	// Training is done; only the artifact is served from here on.
	s.env, s.warm = nil, nil
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return err
	}
	var lt *layerTotals
	if r.traced {
		lt = &layerTotals{genS: genS}
	}
	var jobs []float64
	if err := r.servePhase(s.fleet, r.seconds, &jobs, lt); err != nil {
		return err
	}
	if r.traced {
		lt.report(r)
		return nil
	}
	r.set("job_s.p50", median(jobs), "s")
	tail, q := tailQuantile(jobs)
	r.set("job_s.tail", tail, "s")
	r.notef("job_s (reshard jobs) over %d (tail is p%.0f)", len(jobs), q*100)
	r.set("f1", f1, "ratio")
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mib", rss, "MiB")
	return nil
}

// meanF1 aligns the folds the set-up did not, before the timed phase,
// and returns the F1 over every fold: the figure align-paper-rounds
// reports for the same pair. One fold's F1 swings too far from seed to
// seed to gate on.
func (r *run) meanF1(spec alignSpec, s *alignSetup) (float64, error) {
	seen := map[int]digest{0: s.warm.digest}
	sum := s.warm.digest.F1
	for fold := 1; fold < cycleFolds; fold++ {
		r.attempted++
		jr, err := s.env.runJob(fold, filepath.Join(r.dir, fmt.Sprintf("fold-%d.snap", fold)))
		if err != nil {
			r.failed++
			return 0, fmt.Errorf("fold %d: %w", fold, err)
		}
		r.checkDigest(spec, seen, fold, jr.digest, "f1 job")
		sum += jr.digest.F1
	}
	return sum / cycleFolds, nil
}

// servePhase reads through the router at each fixed rate for an equal
// share of dur while the operator reshards beside the reads. It sets
// the read and reshard metrics; reshard job times go to jobs when
// non-nil. A traced run then probes the serving layers and searches the
// read capacity for capShare of dur more.
func (r *run) servePhase(f *fleetEnv, dur float64, jobs *[]float64, lt *layerTotals) error {
	// Collect the jobs' garbage and hand its pages back now, so neither
	// runs as background work under the reads.
	debug.FreeOSMemory()
	refused0, err := f.routerRefusals()
	if err != nil {
		return err
	}
	per := time.Duration(dur / float64(len(readRates)) * float64(time.Second))
	var reshards []float64
	var lags []float64
	byKind := map[string][]float64{}
	wrongMid := 0
	for k, rate := range readRates {
		var spans *spanLog
		if lt != nil {
			spans = r.spans
		}
		ps := f.openLoop(rate, per, max(2, int(per/reshardEvery)), spans)
		r.tally(ps, fmt.Sprintf("r%d", k+1))
		// Read latencies are printed by every run but gated by none: on a
		// shared two-vCPU VM their run-to-run spread reaches or passes the
		// largest usable bound (see README.md). The traced run reports
		// them per layer.
		r.notef("read_ms.p50.r%d %.4f ms, read_ms.p99.r%d %.4f ms over %d steady reads",
			k+1, median(ps.steady()), k+1, ps.steadyP99(), len(ps.steady()))
		for i, l := range ps.lat {
			if !ps.midAt[i] {
				byKind[ps.kind[i]] = append(byKind[ps.kind[i]], l)
			}
		}
		if lt != nil {
			lt.readP50 = append(lt.readP50, median(ps.steady()))
			lt.readP99 = append(lt.readP99, ps.steadyP99())
			lt.midP99 = append(lt.midP99, ps.midP99())
		}
		wrongMid += ps.wrongMid
		r.notef("r%d=%g/s: %d reads (%d mid-reshard, p99 %.2fms), %d failed (%d refused), %d reshards (%d ok; mid-rollout probes %d refused, %d known defect), backlog %.2fms",
			k+1, rate, len(ps.lat), len(ps.lat)-len(ps.steady()), ps.midP99(), ps.failed, ps.refused, len(ps.reshards), ps.reshardOK, ps.midRefused, ps.wrongMid, ps.backlogMs())
		lags = append(lags, ps.lag...)
		for _, st := range ps.reshards {
			if st.reshard > 0 {
				reshards = append(reshards, secs(st.reshard))
				if jobs != nil {
					*jobs = append(*jobs, secs(st.job))
				}
				if lt != nil {
					lt.reshards = append(lt.reshards, st)
				}
				for name, v := range map[string]int64{
					"setsync.wire_bytes": st.wireBytes,
					"fleet.mid_refused":  int64(st.midRefused),
					"fleet.mid_known":    int64(st.midKnown),
				} {
					key := fmt.Sprintf("%s.to_layout%d", name, st.target)
					if _, ok := r.counters[key]; !ok {
						r.counters[key] = v
					}
				}
			}
		}
	}
	for _, kind := range readKinds {
		xs := byKind[kind]
		r.notef("read_ms.%s p50 %.4f ms, p99 %.4f ms over %d steady reads at all rates", kind, median(xs), quantile(xs, 0.99), len(xs))
		if lt != nil {
			lt.kindP50 = append(lt.kindP50, median(xs))
			lt.kindP99 = append(lt.kindP99, quantile(xs, 0.99))
		}
	}
	if len(reshards) == 0 {
		return fmt.Errorf("no reshard completed during the read phases")
	}
	refused1, err := f.routerRefusals()
	if err != nil {
		return err
	}
	if lt != nil {
		lt.wrongMid = wrongMid
		lt.lagP99 = quantile(lags, 0.99)
		lt.refusals = refused1 - refused0
		if err := lt.probeServing(r, f); err != nil {
			return err
		}
		settled, probes := f.searchCapacity(time.Duration(capShare * dur * float64(time.Second)))
		for k, ps := range probes {
			r.tally(ps, fmt.Sprintf("capacity probe %d", k))
		}
		var logSum float64
		for _, x := range settled {
			logSum += math.Log(x)
		}
		lt.maxRate = math.Exp(logSum / float64(len(settled)))
		r.notef("max_rate_rps over the last %d of %d capacity probes: %.0f", len(settled), len(probes), settled)
		return nil
	}
	r.set("reshard_s", median(reshards), "s")
	r.notef("reshard_s over %d reshards; router refusals %d; known-defect answers to the mid-rollout probes %d: %.4f", len(reshards), refused1-refused0, wrongMid, reshards)
	return nil
}

// tally counts a read phase's reads and reshards as operations and
// records its failures and wrong answers.
func (r *run) tally(ps phaseStats, what string) {
	r.attempted += len(ps.lat) + len(ps.reshards)
	r.failed += ps.failed + len(ps.reshards) - ps.reshardOK
	for _, e := range ps.errs {
		r.notef("%s: %s", what, e)
	}
	for _, w := range ps.wrong {
		r.mismatch("%s read: %s", what, w)
	}
}
