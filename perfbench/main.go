// Command perfbench is the repository's end-to-end and per-layer
// benchmark. One invocation runs one workload for a fixed time and
// prints every metric by name with its unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {"name": {"value": v, "unit": u}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones (tracing off);
// with -trace 1 they are the per-layer ones, from a run that records a
// span around every layer call and writes a Chrome trace. See
// README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload run accumulates.
type run struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	dir      string // scratch directory of this run, removed at exit
	spans    *spanLog

	metrics   map[string]metric
	counters  map[string]int64 // deterministic work counters, checked across runs of a seed
	notes     []string         // sample counts and other context, printed before the result
	attempted int
	failed    int
	wrong     []string // output-check mismatches: any makes the run incorrect
}

func (r *run) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *run) mismatch(format string, args ...any) {
	r.wrong = append(r.wrong, fmt.Sprintf(format, args...))
}

func (r *run) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*run) error{
	"align-crawl-cold":    func(r *run) error { return runAlign(r, crawlSpec) },
	"align-paper-rounds":  func(r *run) error { return runAlign(r, paperSpec) },
	"serve-fleet-reshard": runServe,
}

func main() {
	os.Exit(mainCode())
}

func mainCode() int {
	workload := flag.String("workload", "", "workload to run: align-crawl-cold, align-paper-rounds or serve-fleet-reshard")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "how long the timed phase measures")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer mode and writes a Chrome trace")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's scratch files and trace output")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		flag.Usage()
		return 2
	}
	if err := loadGolden(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	r := &run{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		dir:     filepath.Join(*workdir, fmt.Sprintf("run-%d", os.Getpid())),
		metrics: map[string]metric{}, counters: map[string]int64{},
	}
	if r.traced {
		r.spans = newSpanLog()
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(r.dir)
	start := time.Now()
	if err := fn(r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		return 1
	}
	if r.traced {
		path := filepath.Join(*workdir, fmt.Sprintf("trace-%s-%d.json", r.workload, r.seed))
		if err := r.spans.writeChrome(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			return 1
		}
		r.notef("chrome trace: %s", path)
	}
	r.notef("wall %.1fs", time.Since(start).Seconds())
	return r.print()
}

// print writes the metric table, the deterministic counters and the
// result line, and returns the exit code: 1 when an output check
// failed.
func (r *run) print() int {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%g trace=%v\n", r.workload, r.seed, r.seconds, r.traced)
	for _, n := range names {
		fmt.Printf("%-28s %16.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	for _, w := range r.wrong {
		fmt.Println("# MISMATCH " + w)
	}
	counters, err := json.Marshal(r.counters)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("# counters %s\n", counters)
	line, err := json.Marshal(report{Correct: len(r.wrong) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if len(r.wrong) > 0 {
		return 1
	}
	return 0
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
