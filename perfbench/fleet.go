package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/activeiter/activeiter/internal/fleet"
	"github.com/activeiter/activeiter/internal/serve"
	"github.com/activeiter/activeiter/internal/setsync"
	"github.com/activeiter/activeiter/internal/snapshot"
)

// readLimit is the p99 read latency a rate must meet to count toward
// max_rate_rps.
const readLimit = 10 * time.Millisecond

// server is one in-process HTTP server on a loopback listener.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on Close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close() // nothing left to drain: the run is over
	<-s.done
}

// backend is one alignd-equivalent shard server: a serve.Handler over a
// Store, reloading its artifact path on POST /v1/reload.
type backend struct {
	path  string
	store *serve.Store
	h     *serve.Handler
	srv   *server
	have  *snapshot.Snapshot // the artifact on disk, the base of the next delta pull
}

// syncPeer is a setsync.Serve endpoint holding the shard a backend is
// to receive next.
type syncPeer struct {
	ln   net.Listener
	cur  atomic.Pointer[snapshot.Snapshot]
	wg   sync.WaitGroup
	addr string
}

func startSyncPeer() (*syncPeer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sync listen: %w", err)
	}
	p := &syncPeer{ln: ln, addr: ln.Addr().String()}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.wg.Add(1)
			go func(c net.Conn) {
				defer p.wg.Done()
				defer c.Close()
				_ = c.SetDeadline(time.Now().Add(time.Minute))
				// A failed sync surfaces as the puller's error.
				_ = setsync.Serve(c, p.cur.Load(), setsync.Options{})
			}(conn)
		}
	}()
	return p, nil
}

func (p *syncPeer) close() {
	_ = p.ln.Close() // stops the accept loop
	p.wg.Wait()
}

// request is one read of the traffic mix.
type request struct {
	kind   string // match1, match2, cand2, cand1k, score
	i      int32  // net-1 user index (match1, cand1k, score)
	j      int32  // net-2 user index (match2, cand2)
	method string
	path   string
	body   []byte
}

// expected is the monolithic answer to a request, generation stripped.
type expected struct {
	status int
	body   []byte
}

var (
	generationJSON = regexp.MustCompile(`"generation":[0-9]+`)
	generationText = regexp.MustCompile(`generation [0-9]+`)
)

// stripGeneration zeroes the process-local generation; JSON stays JSON.
func stripGeneration(b []byte) []byte {
	b = generationJSON.ReplaceAll(b, []byte(`"generation":0`))
	return generationText.ReplaceAll(b, []byte("generation 0"))
}

// fleetEnv is the serving tier of one workload: a monolithic reference
// handler, two shard backends behind a fleet router, and one sync peer
// per backend for reshards.
type fleetEnv struct {
	full     *snapshot.Snapshot
	monoIx   *serve.Index // the monolithic index the expected answers come from
	mono     *serve.Handler
	backends []*backend
	peers    []*syncPeer
	router   *fleet.Router
	rsrv     *server
	client   *http.Client
	layouts  [2][]snapshot.UserRange
	layout   int
	mover    int32 // the net-1 user a reshard moves between the shards
	moverJ   int32 // the mover's net-2 match in the full artifact, or -1

	// givenUp holds, per target layout, the answers that the shard
	// without the mover gives to the reads whose answer depends on it.
	givenUp [2]map[string]expected

	reqs     []request
	midProbe []request // sent while a rollout holds the fleet half rolled
	expect   map[string]expected
	next     int // position in reqs for the next phase

	// gate holds the open-loop reads back while a rollout runs: the
	// reads take it shared, the operator's rollout exclusively.
	gate    sync.RWMutex
	reloads atomic.Int32               // backend reloads of the current rollout
	half    atomic.Pointer[halfRolled] // the current rollout's probe answers

	openS float64 // seconds to open and index the initial shards
	spans *spanLog
}

func reqKey(r request) string { return r.method + " " + r.path + " " + string(r.body) }

// startFleet splits full into two user-range shards, serves each from a
// backend, fronts them with a router and records the monolithic answer
// to every request of the seeded traffic mix.
func startFleet(dir string, full *snapshot.Snapshot, seed int64, spans *spanLog) (*fleetEnv, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The artifact's creation stamp is the split epoch and part of every
	// fingerprint; it is pinned to the seed (see createdStamp).
	f := &fleetEnv{full: full, spans: spans}
	n1 := int32(len(full.Meta.Users1))
	even := snapshot.EvenRanges(int(n1), 2)
	shifted := []snapshot.UserRange{{Lo: 0, Hi: even[0].Hi + 1}, {Lo: even[0].Hi + 1, Hi: n1}}
	f.layouts = [2][]snapshot.UserRange{even, shifted}
	f.mover, f.moverJ = even[0].Hi, -1

	monoStore := &serve.Store{}
	ix, err := serve.NewIndex(full)
	if err != nil {
		return nil, fmt.Errorf("index full artifact: %w", err)
	}
	monoStore.Swap(ix)
	f.monoIx = ix
	if m, ok := ix.MatchFor(1, f.mover); ok {
		f.moverJ = m.Index
	}
	f.mono = serve.NewHandler(monoStore, nil, serve.HandlerOptions{DefaultK: snapshot.DefaultTopK})

	shards, err := snapshot.Split(full, even)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("split: %w", err)
	}
	var urls []string
	for k, sh := range shards {
		b := &backend{path: filepath.Join(dir, fmt.Sprintf("shard-%d.snap", k)), store: &serve.Store{}}
		if err := sh.WriteFile(b.path); err != nil {
			f.close()
			return nil, fmt.Errorf("write shard %d: %w", k, err)
		}
		t0 := time.Now()
		snap, err := snapshot.OpenFile(b.path)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("open shard %d: %w", k, err)
		}
		bix, err := serve.NewIndex(snap)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("index shard %d: %w", k, err)
		}
		f.openS += secs(time.Since(t0))
		b.store.Swap(bix)
		b.have = snap
		b.h = serve.NewHandler(b.store, nil, serve.HandlerOptions{
			DefaultK: snapshot.DefaultTopK, SnapshotPath: b.path, Load: snapshot.OpenFile,
		})
		if b.srv, err = startServer(f.probeHalfRolled(spans.wrapReload(b.h))); err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, b)
		urls = append(urls, b.srv.url)
		p, err := startSyncPeer()
		if err != nil {
			f.close()
			return nil, err
		}
		f.peers = append(f.peers, p)
	}
	if f.router, err = fleet.NewRouter(urls, fleet.Options{}); err != nil {
		f.close()
		return nil, fmt.Errorf("router: %w", err)
	}
	f.router.Refresh()
	f.router.Start()
	if f.rsrv, err = startServer(f.router); err != nil {
		f.close()
		return nil, err
	}
	// The reads share one client capped at nproc connections; the
	// operator's rollout and readiness calls go to the router in process.
	f.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: runtime.NumCPU(), MaxIdleConnsPerHost: runtime.NumCPU()},
	}
	if err := f.waitReady(10 * time.Second); err != nil {
		f.close()
		return nil, err
	}
	f.buildMix(seed)
	f.buildMidProbe()
	if err := f.recordGiveUp(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

func (f *fleetEnv) close() {
	if f.rsrv != nil {
		f.rsrv.close()
	}
	if f.router != nil {
		f.router.Stop()
	}
	for _, b := range f.backends {
		if b.srv != nil {
			b.srv.close()
		}
	}
	for _, p := range f.peers {
		p.close()
	}
	if f.client != nil {
		f.client.CloseIdleConnections()
	}
}

// routerDo sends one operator request to the router's handler in
// process, so it takes no client connection and never queues behind
// the reads.
func (f *fleetEnv) routerDo(method, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	f.router.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

func (f *fleetEnv) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		if f.routerDo(http.MethodGet, "/readyz").Code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router not ready after %v", limit)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// mixSize is the length of the pre-generated request sequence; phases
// walk it cyclically.
const mixSize = 1 << 15

// readKinds are the request kinds of the read mix, drawn with equal
// shares: no public trace gives their real proportions, so no kind is
// weighted over another, and every run reports latency per kind.
var readKinds = []string{"match1", "match2", "cand2", "cand1k", "score"}

// zipfS is the exponent of the user popularity. Breslau et al. ("Web
// Caching and Zipf-like Distributions: Evidence and Implications",
// INFOCOM 1999) measured Zipf-like request popularity with exponents
// 0.64-0.83 across six proxy traces; 0.8 sits in that range.
const zipfS = 0.8

// zipf draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. Unlike rand.Zipf it takes exponents at or below 1.
type zipf struct {
	rng *rand.Rand
	cdf []float64
}

func newZipf(rng *rand.Rand, s float64, n int) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{rng: rng, cdf: cdf}
}

func (z *zipf) draw() int {
	k := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	if k == len(z.cdf) {
		k--
	}
	return k
}

// buildMix draws the seeded read mix (Zipf-skewed users over a seeded
// permutation, so hot users fall in every shard) and records the
// monolithic answer to each distinct request.
func (f *fleetEnv) buildMix(seed int64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	ix := f.monoIx
	u1, u2, _, _ := ix.Counts()
	perm1, perm2 := rng.Perm(u1), rng.Perm(u2)
	z1, z2 := newZipf(rng, zipfS, u1), newZipf(rng, zipfS, u2)
	f.expect = make(map[string]expected)
	f.reqs = make([]request, 0, mixSize)
	for len(f.reqs) < mixSize {
		i := int32(perm1[z1.draw()])
		j := int32(perm2[z2.draw()])
		kind := readKinds[rng.Intn(len(readKinds))]
		// Score a link from i's candidate list when it has one, so most
		// lookups hit the pool.
		scoreJ := j
		if kind == "score" {
			if cs := ix.CandidatesFor(1, i, 0); len(cs) > 0 {
				scoreJ = cs[rng.Intn(len(cs))].Index
			}
		}
		f.reqs = append(f.reqs, f.makeRequest(kind, i, j, scoreJ))
	}
}

// makeRequest builds one read of the given kind for net-1 user i or
// net-2 user j, and records the monolithic answer to it.
func (f *fleetEnv) makeRequest(kind string, i, j, scoreJ int32) request {
	id1, id2 := f.monoIx.UserID(1, i), f.monoIx.UserID(2, j)
	var r request
	switch kind {
	case "match1":
		r = request{kind: kind, i: i, method: http.MethodGet, path: "/v1/match/1/" + id1}
	case "match2":
		r = request{kind: kind, j: j, method: http.MethodGet, path: "/v1/match/2/" + id2}
	case "cand2":
		r = request{kind: kind, j: j, method: http.MethodGet, path: "/v1/candidates/2/" + id2}
	case "cand1k":
		r = request{kind: kind, i: i, method: http.MethodGet, path: "/v1/candidates/1/" + id1 + "?k=5"}
	default:
		r = request{kind: kind, i: i, method: http.MethodPost, path: "/v1/score",
			body: []byte(fmt.Sprintf(`{"i":%d,"j":%d}`, i, scoreJ))}
	}
	key := reqKey(r)
	if _, ok := f.expect[key]; !ok {
		f.expect[key] = answer(f.mono, r)
	}
	return r
}

// midProbeEach is how many reads of each kind from the head of the mix
// the mid-rollout probe sends, beside the reads of the moving user.
const midProbeEach = 4

// buildMidProbe fixes the reads sent through the router while a
// rollout holds the fleet half rolled: every kind of read that depends
// on the moving user (its owner-routed reads, the net-2 match that ends
// on it, and a net-2 candidates list that holds it), and the first
// midProbeEach reads of each kind in the mix.
func (f *fleetEnv) buildMidProbe() {
	ix := f.monoIx
	var j, scoreJ int32 = -1, -1
	for _, c := range ix.CandidatesFor(1, f.mover, 0) {
		if scoreJ < 0 {
			scoreJ = c.Index
		}
		for _, back := range ix.CandidatesFor(2, c.Index, 0) {
			if j < 0 && back.Index == f.mover {
				j = c.Index
				break
			}
		}
	}
	if scoreJ < 0 {
		scoreJ = 0
	}
	f.midProbe = []request{
		f.makeRequest("match1", f.mover, 0, 0),
		f.makeRequest("cand1k", f.mover, 0, 0),
		f.makeRequest("score", f.mover, 0, scoreJ),
	}
	if f.moverJ >= 0 {
		f.midProbe = append(f.midProbe, f.makeRequest("match2", 0, f.moverJ, 0))
	}
	if j >= 0 {
		f.midProbe = append(f.midProbe, f.makeRequest("cand2", 0, j, 0))
	}
	for _, kind := range readKinds {
		n := 0
		for _, r := range f.reqs {
			if r.kind == kind && n < midProbeEach {
				f.midProbe = append(f.midProbe, r)
				n++
			}
		}
	}
}

// answer is h's reply to r, generation stripped.
func answer(h http.Handler, r request) expected {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body)))
	return expected{status: rec.Code, body: stripGeneration(rec.Body.Bytes())}
}

// recordGiveUp records, for each layout, how the shard that does not own
// the moving user answers the probe reads that depend on that user: its
// owner-routed reads and the net-2 match that ends on it. They are the
// answers of the known mid-rollout defect (see knownRolloutDefect).
func (f *fleetEnv) recordGiveUp() error {
	for l, layout := range f.layouts {
		shards, err := snapshot.Split(f.full, layout)
		if err != nil {
			return fmt.Errorf("split layout %d: %w", l, err)
		}
		k := 0
		if layout[0].Contains(f.mover) {
			k = 1
		}
		ix, err := serve.NewIndex(shards[k])
		if err != nil {
			return fmt.Errorf("index layout %d shard %d: %w", l, k, err)
		}
		st := &serve.Store{}
		st.Swap(ix)
		h := serve.NewHandler(st, nil, serve.HandlerOptions{DefaultK: snapshot.DefaultTopK})
		f.givenUp[l] = map[string]expected{}
		for _, r := range f.midProbe {
			if f.dependsOnMover(r) {
				f.givenUp[l][reqKey(r)] = answer(h, r)
			}
		}
	}
	return nil
}

// dependsOnMover reports whether r is an owner-routed read (net-1
// match, net-1 candidates, pool score) for the moving user, or the net-2
// match that ends on it.
func (f *fleetEnv) dependsOnMover(r request) bool {
	switch r.kind {
	case "match1", "cand1k", "score":
		return r.i == f.mover
	case "match2":
		return r.j == f.moverJ
	}
	return false
}

// errRefused marks a 502/503 answer where the monolith answered
// otherwise: the fleet declined to answer rather than answering wrong.
var errRefused = errors.New("refused")

// do sends one request to base and checks the answer against the
// monolithic one. A refusal wraps errRefused; any other difference is
// a wrong answer.
func (f *fleetEnv) do(base string, r request) error {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, base+r.path, body)
	if err != nil {
		return err
	}
	if r.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	want := f.expect[reqKey(r)]
	if resp.StatusCode == want.status && bytes.Equal(stripGeneration(raw), want.body) {
		return nil
	}
	if resp.StatusCode == http.StatusBadGateway || resp.StatusCode == http.StatusServiceUnavailable {
		return fmt.Errorf("%w: %s %s: %d %s", errRefused, r.method, r.path, resp.StatusCode, truncate(raw))
	}
	return &wrongAnswer{req: r, got: expected{status: resp.StatusCode, body: stripGeneration(raw)}, want: want}
}

// wrongAnswer is an answer that differs from the monolith's.
type wrongAnswer struct {
	req       request
	got, want expected
}

func (w *wrongAnswer) Error() string {
	return fmt.Sprintf("%s %s: got %d %q, want %d %q", w.req.method, w.req.path, w.got.status,
		truncate(w.got.body), w.want.status, truncate(w.want.body))
}

func truncate(b []byte) string {
	b = bytes.TrimSpace(b)
	if len(b) > 160 {
		return string(b[:160]) + "…"
	}
	return string(b)
}

// reshardStats is the cost of one reshard.
type reshardStats struct {
	job, reshard time.Duration // whole job; pull start until the router is ready
	split, pull  time.Duration
	wireBytes    int64
	fullBytes    int64
	notReady     time.Duration // sampled when polled
	polled       bool
	start        time.Time // reshard job started
	rollEnd      time.Time // router ready on the new table, or gave up
	traced       bool      // recorded spans
	target       int       // layout resharded to

	// The mid-rollout probe's answers: refusals, answers of the known
	// defect's shape, and any other difference from the monolith.
	midRefused, midKnown int
	midWrong             []string
}

// knownRolloutDefect reports whether wa, a probe answer of the half-rolled
// fleet on the way to the target layout, has the known defect's shape.
// For that moment the fleet holds the moving user nowhere or twice, so
// a read that depends on the mover may be answered as the shard without
// it answers (recorded in givenUp), and a net-2 candidates fan-out may
// miss the mover's entry or hold it twice. Any other wrong answer is not
// known.
func (f *fleetEnv) knownRolloutDefect(target int, wa *wrongAnswer) bool {
	r := wa.req
	if r.kind == "cand2" {
		return moverMissingOrDoubled(wa.got, wa.want, f.mover)
	}
	if !f.dependsOnMover(r) {
		return false
	}
	want, ok := f.givenUp[target][reqKey(r)]
	return ok && want.status == wa.got.status && bytes.Equal(want.body, wa.got.body)
}

// halfRolled is what the router answered to the mid-rollout probe.
type halfRolled struct {
	answers []expected // one per midProbe read
	took    time.Duration
}

// probeHalfRolled wraps a backend handler so that the second backend
// reload of a rollout first sends the mid-rollout probe through the
// router, in process. The router reloads its backends one at a time and
// re-reads each one's range when it is ready again, so at that moment
// the first backend serves the new layout and the second the old one:
// the range table has a gap or an overlap at the moving user. The probe
// shows what a reader sees then, the same way in every rollout, where
// reads racing the rollout would hit that moment by chance.
func (f *fleetEnv) probeHalfRolled(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/reload" && f.reloads.Add(1) == 2 {
			t0 := time.Now()
			hr := &halfRolled{answers: make([]expected, len(f.midProbe))}
			for k, q := range f.midProbe {
				hr.answers[k] = answer(f.router, q)
			}
			hr.took = time.Since(t0)
			f.half.Store(hr)
		}
		h.ServeHTTP(w, r)
	})
}

// classifyHalfRolled sorts the probe answers of a rollout to target
// into st: refusals, the known defect, and wrong answers.
func (f *fleetEnv) classifyHalfRolled(st *reshardStats, hr *halfRolled) {
	for k, q := range f.midProbe {
		got, want := hr.answers[k], f.expect[reqKey(q)]
		wa := &wrongAnswer{req: q, got: got, want: want}
		switch {
		case got.status == want.status && bytes.Equal(got.body, want.body):
		case got.status == http.StatusBadGateway || got.status == http.StatusServiceUnavailable:
			st.midRefused++
		case f.knownRolloutDefect(st.target, wa):
			st.midKnown++
		default:
			st.midWrong = append(st.midWrong, "mid-rollout "+wa.Error())
		}
	}
}

// moverMissingOrDoubled reports whether got, a net-2 candidates answer,
// differs from want only in the mover's entry: missing, with the next
// candidate moved up into the list, or doubled, with the last candidate
// pushed off it.
func moverMissingOrDoubled(got, want expected, mover int32) bool {
	if got.status != http.StatusOK || want.status != http.StatusOK {
		return false
	}
	var g, w map[string]json.RawMessage
	if json.Unmarshal(got.body, &g) != nil || json.Unmarshal(want.body, &w) != nil || len(g) != len(w) {
		return false
	}
	for k, v := range w {
		if k != "candidates" && !bytes.Equal(v, g[k]) {
			return false
		}
	}
	var gc, wc []serve.Candidate
	if json.Unmarshal(g["candidates"], &gc) != nil || json.Unmarshal(w["candidates"], &wc) != nil {
		return false
	}
	gRest, gMover := withoutUser(gc, mover)
	wRest, wMover := withoutUser(wc, mover)
	switch {
	case wMover == 1 && gMover == 0: // missing: the next candidate moves up
		return len(gRest) <= len(wRest)+1 && isPrefix(wRest, gRest)
	case wMover == 1 && gMover == 2: // doubled: the last candidate drops off
		return len(wRest) <= len(gRest)+1 && isPrefix(gRest, wRest)
	}
	return false
}

// withoutUser returns cs without user's entries and how many there were.
func withoutUser(cs []serve.Candidate, user int32) ([]serve.Candidate, int) {
	var out []serve.Candidate
	for _, c := range cs {
		if c.Index != user {
			out = append(out, c)
		}
	}
	return out, len(cs) - len(out)
}

func isPrefix(pre, cs []serve.Candidate) bool {
	if len(pre) > len(cs) {
		return false
	}
	for k := range pre {
		if pre[k] != cs[k] {
			return false
		}
	}
	return true
}

// reshard moves the fleet to the other layout: split the artifact,
// publish each new shard on its sync peer, pull it into each backend
// (delta sync against the backend's current shard), write it to the
// backend's artifact path, and roll the router out onto it. With a
// span log it records a job span with a child per layer call and
// samples the router's readiness during the rollout.
func (f *fleetEnv) reshard(l *spanLog) (reshardStats, error) {
	target := 1 - f.layout
	st := reshardStats{traced: l != nil, target: target}
	t0 := time.Now()
	st.start = t0
	job := l.child(0, "job", "job")
	defer job.end()
	sp := l.child(job.id(), "snapshot", "snapshot.split")
	shards, err := snapshot.Split(f.full, f.layouts[target])
	sp.end()
	if err != nil {
		return st, fmt.Errorf("reshard split: %w", err)
	}
	st.split = time.Since(t0)
	for k, sh := range shards {
		f.peers[k].cur.Store(sh)
	}
	tp := time.Now()
	for k, b := range f.backends {
		addr := f.peers[k].addr
		dial := func() (net.Conn, error) { return net.DialTimeout("tcp", addr, 5*time.Second) }
		t := time.Now()
		sp := l.child(job.id(), "setsync", "setsync.pull")
		snap, stats, err := setsync.Pull(dial, b.have, setsync.Options{Timeout: time.Minute})
		sp.end()
		if err != nil {
			return st, fmt.Errorf("reshard pull shard %d: %w", k, err)
		}
		st.pull += time.Since(t)
		st.wireBytes += stats.WireBytes()
		st.fullBytes += stats.FullBytes
		sp = l.child(job.id(), "snapshot", "snapshot.write")
		err = snap.WriteFile(b.path)
		sp.end()
		if err != nil {
			return st, fmt.Errorf("reshard write shard %d: %w", k, err)
		}
		b.have = snap
	}
	if err := f.rollOut(l, job.id(), &st); err != nil {
		return st, err
	}
	// The probe is the benchmark's own work inside the rollout.
	took := f.half.Load().took
	st.reshard = st.rollEnd.Sub(tp) - took
	st.job = st.rollEnd.Sub(t0) - took
	f.layout = st.target
	return st, nil
}

// rollOut rolls the router out onto the backends' new artifacts and
// waits until it is ready on the new range table. The open-loop reads
// wait meanwhile: the fleet is not consistent until the rollout ends
// (see probeHalfRolled), so reads racing it would fail by chance.
func (f *fleetEnv) rollOut(l *spanLog, job uint64, st *reshardStats) error {
	f.gate.Lock()
	defer f.gate.Unlock()
	var stopPoll func() time.Duration
	if l != nil {
		stopPoll = f.pollNotReady()
	}
	f.reloads.Store(0)
	f.half.Store(nil)
	sp := l.child(job, "fleet", "fleet.rollout")
	rerr := f.rollout()
	sp.end()
	if stopPoll != nil {
		st.notReady = stopPoll()
		st.polled = true
	}
	if rerr != nil {
		st.rollEnd = time.Now()
		return rerr
	}
	sp = l.child(job, "fleet", "fleet.ready")
	err := f.waitReady(10 * time.Second)
	sp.end()
	st.rollEnd = time.Now()
	if err != nil {
		return err
	}
	hr := f.half.Load()
	if hr == nil {
		return errors.New("the rollout never reached a second backend reload")
	}
	f.classifyHalfRolled(st, hr)
	return nil
}

func (f *fleetEnv) rollout() error {
	rec := f.routerDo(http.MethodPost, "/v1/rollout")
	if rec.Code != http.StatusOK {
		return fmt.Errorf("rollout answered %d: %s", rec.Code, truncate(rec.Body.Bytes()))
	}
	return nil
}

// pollNotReady samples the router's readiness in process (no client
// connection) every 200µs until the returned stop function is called,
// which returns the time the router spent not ready.
func (f *fleetEnv) pollNotReady() func() time.Duration {
	stop := make(chan struct{})
	var total time.Duration
	done := make(chan struct{})
	go func() {
		defer close(done)
		last := time.Now()
		for {
			select {
			case <-stop:
				return
			default:
			}
			code := f.routerDo(http.MethodGet, "/readyz").Code
			now := time.Now()
			if code != http.StatusOK {
				total += now.Sub(last)
			}
			last = now
			time.Sleep(200 * time.Microsecond)
		}
	}()
	return func() time.Duration {
		close(stop)
		<-done
		return total
	}
}

// routerRefusals reads the router's own 502/503 answers to reads from
// its /metricsz exposition.
func (f *fleetEnv) routerRefusals() (int64, error) {
	resp, err := f.client.Get(f.rsrv.url + "/metricsz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var n int64
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "activeiter_serve_errors_total{") {
			continue
		}
		if !strings.Contains(line, `endpoint="match"`) && !strings.Contains(line, `endpoint="candidates"`) && !strings.Contains(line, `endpoint="score"`) {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse %q: %w", line, err)
		}
		n += int64(v)
	}
	return n, sc.Err()
}

// phaseStats is one open-loop read phase at a fixed rate.
type phaseStats struct {
	lat        []float64 // ms per read, from its due time when it waited for a connection
	lag        []float64 // ms the send ran behind its due time
	failedAt   []bool
	midAt      []bool // read overlapped a reshard job
	fromAt     []time.Time
	doneAt     []time.Time
	kind       []string // request kind per read
	failed     int
	reshards   []reshardStats
	reshardOK  int
	refused    int
	midRefused int      // refusals of the reshards' mid-rollout probes
	wrongMid   int      // the probes' answers of the known defect's shape
	errs       []string // failures, a few kept for the log
	wrong      []string // wrong answers: output-check mismatches
}

// reshardEvery is the spacing of the reshards beside the fixed-rate
// reads: 12 per rate on the align-* workloads, 25 on the serve workload.
const reshardEvery = 400 * time.Millisecond

// steadyP99 is the p99 of the reads that overlapped no reshard job:
// the reshard's own cost is reshard_s, and the reads it broke are
// failed operations.
func (p phaseStats) steadyP99() float64 { return quantile(p.steady(), 0.99) }

// steady returns the latencies of the reads that overlapped no
// reshard job.
func (p phaseStats) steady() []float64 {
	var out []float64
	for i, l := range p.lat {
		if !p.midAt[i] {
			out = append(out, l)
		}
	}
	return out
}

// midP99 is the p99 of the reads that overlapped a reshard job.
func (p phaseStats) midP99() float64 {
	var mid []float64
	for i, l := range p.lat {
		if p.midAt[i] {
			mid = append(mid, l)
		}
	}
	if len(mid) == 0 {
		return 0
	}
	return quantile(mid, 0.99)
}

// backlogMs is the median send lag over the last sixteenth of the
// reads: a generator that keeps falling behind its schedule shows a
// growing backlog here.
func (p phaseStats) backlogMs() float64 {
	size := len(p.lat) / 16
	if size == 0 {
		size = len(p.lat)
	}
	return median(p.lag[len(p.lag)-size:])
}

// meets reports whether the phase met the read limit without a
// growing backlog: the failed reads, which count as missing the limit,
// plus the steady reads over it are at most 1% of the reads.
func (p phaseStats) meets() bool {
	limit := float64(readLimit) / 1e6
	return len(p.lat) > 0 && p.backlogMs() <= limit && float64(p.misses()) <= 0.01*float64(len(p.lat))
}

// misses counts the reads that missed the limit: every failed read and
// every steady read slower than it.
func (p phaseStats) misses() int {
	limit := float64(readLimit) / 1e6
	miss := p.failed
	for i, l := range p.lat {
		if !p.failedAt[i] && !p.midAt[i] && l > limit {
			miss++
		}
	}
	return miss
}

// openLoop sends reads on a fixed schedule at rate per second for dur
// from nproc workers (one connection each). A read that had to wait for
// a busy connection is timed from its due time, so a stall is charged
// to every read it delays. Beside the reads an operator reshards the
// fleet nReshards times, evenly spaced.
func (f *fleetEnv) openLoop(rate float64, dur time.Duration, nReshards int, spans *spanLog) phaseStats {
	n := int(rate * dur.Seconds())
	ps := phaseStats{lat: make([]float64, n), lag: make([]float64, n), failedAt: make([]bool, n), midAt: make([]bool, n),
		fromAt: make([]time.Time, n), doneAt: make([]time.Time, n), kind: make([]string, n)}
	var errMu sync.Mutex
	start := time.Now().Add(2 * time.Millisecond)
	base := f.next
	f.next = (f.next + n) % len(f.reqs)
	for i := range ps.kind {
		ps.kind[i] = f.reqs[(base+i)%len(f.reqs)].kind
	}
	var idx atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(idx.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) / rate * 1e9))
				// A read that was due while every connection was busy waited
				// for the system, so it is timed from its due time; one whose
				// connection was idle is timed from its send, and the timer's
				// overshoot past the due time is the generator's own lag.
				from := due
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
					from = time.Now()
				}
				sent := time.Now()
				f.gate.RLock() // held back while a rollout runs
				err := f.do(f.rsrv.url, f.reqs[(base+i)%len(f.reqs)])
				f.gate.RUnlock()
				done := time.Now()
				ps.lat[i] = millis(done.Sub(from))
				ps.lag[i] = millis(sent.Sub(due))
				ps.fromAt[i], ps.doneAt[i] = from, done
				if err == nil {
					continue
				}
				ps.failedAt[i] = true
				var wa *wrongAnswer
				errMu.Lock()
				switch {
				case errors.As(err, &wa):
					ps.wrong = append(ps.wrong, wa.Error())
				case errors.Is(err, errRefused):
					ps.refused++
				}
				if len(ps.errs) < 4 {
					ps.errs = append(ps.errs, err.Error())
				}
				errMu.Unlock()
			}
		}()
	}
	// In a traced run every other pair of reshards records spans. A
	// pair goes to both layouts, so each layout has traced and untraced
	// reshards, and the two kinds price the tracing overhead.
	opDone := make(chan struct{})
	go func() {
		defer close(opDone)
		for k := 0; k < nReshards; k++ {
			at := start.Add(time.Duration((float64(k) + 0.5) / float64(nReshards) * float64(dur)))
			if d := time.Until(at); d > 0 {
				time.Sleep(d)
			}
			var l *spanLog
			if (k/2)%2 == 0 {
				l = spans
			}
			// Settle the reads' garbage first, so whether a collection
			// cycle lands inside the reshard does not decide its time.
			runtime.GC()
			st, err := f.reshard(l)
			ps.reshards = append(ps.reshards, st)
			if err != nil {
				errMu.Lock()
				ps.errs = append(ps.errs, "reshard: "+err.Error())
				errMu.Unlock()
				continue
			}
			ps.reshardOK++
		}
	}()
	wg.Wait()
	<-opDone
	for i, failed := range ps.failedAt {
		if failed {
			ps.failed++
		}
		for _, st := range ps.reshards {
			if !ps.doneAt[i].Before(st.start) && !ps.fromAt[i].After(st.rollEnd) {
				ps.midAt[i] = true
			}
		}
	}
	for _, st := range ps.reshards {
		ps.midRefused += st.midRefused
		ps.wrongMid += st.midKnown
		ps.wrong = append(ps.wrong, st.midWrong...)
	}
	return ps
}

// The capacity search is an up-down staircase on the open-loop read
// rate, with no reshard running. Each probe reads at one rate for
// probeDur; a probe that meets the read limit without a growing backlog
// raises the rate by the step, one that misses lowers it. The step
// starts at capStep0, halves at every reversal down to capStepMin, and
// doubles again after three moves the same way, so an unlucky probe
// costs a few probes rather than the search. After its first half the
// staircase hovers on the rate that meets the limit in half its probes,
// and max_rate_rps is the geometric mean rate of the second half's
// probes.
const (
	capStart   = 6000.0 // 1/s, first probe rate
	capStep0   = 0.2    // largest log-rate step (×1.22)
	capStepMin = 0.025  // finest log-rate step (×1.025)
	probeDur   = 300 * time.Millisecond
)

// searchCapacity runs the staircase for budget and returns the rates of
// its second half's probes, and every probe.
func (f *fleetEnv) searchCapacity(budget time.Duration) ([]float64, []phaseStats) {
	logRate, step := math.Log(capStart), capStep0
	var rates []float64
	var probes []phaseStats
	up, run := true, 0 // direction, and moves made that way since the last reversal or doubling
	for t0 := time.Now(); len(probes) < 4 || time.Since(t0) < budget; {
		// Start every probe on a settled heap, as the reshards do.
		runtime.GC()
		rate := math.Exp(logRate)
		ps := f.openLoop(rate, probeDur, 0, nil)
		probes = append(probes, ps)
		rates = append(rates, rate)
		if pass := ps.meets(); pass != up {
			up, run = pass, 0
			step = math.Max(step/2, capStepMin)
		} else if run++; run >= 3 {
			run = 0
			step = math.Min(step*2, capStep0)
		}
		if up {
			logRate += step
		} else {
			logRate -= step
		}
	}
	return rates[len(rates)/2:], probes
}

// directProbe times sequential reads of the given kinds against base,
// returning per-read milliseconds. Wrong answers are returned as an
// error.
func (f *fleetEnv) directProbe(base string, kinds map[string]bool, n int) ([]float64, error) {
	var out []float64
	for i := 0; len(out) < n && i < 50*n; i++ {
		r := f.reqs[i%len(f.reqs)]
		if !kinds[r.kind] {
			continue
		}
		t := time.Now()
		if err := f.do(base, r); err != nil {
			return nil, err
		}
		out = append(out, millis(time.Since(t)))
	}
	if len(out) == 0 {
		return nil, errors.New("no request of the probed kinds in the mix")
	}
	return out, nil
}

// ownerBackend returns the URL of the backend owning net-1 user i
// under the current layout.
func (f *fleetEnv) ownerBackend(i int32) string {
	for k, r := range f.layouts[f.layout] {
		if r.Contains(i) {
			return f.backends[k].srv.url
		}
	}
	return f.backends[0].srv.url
}
