package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (the same rule as numpy's default). xs need not be
// sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the higher of p99 and p90 that leaves at least ten
// samples above it; a smaller sample falls back to p75, so a tail
// figure is never a single outlier. It returns the value and the
// quantile used.
func tailQuantile(xs []float64) (float64, float64) {
	for _, q := range []float64{0.99, 0.9} {
		if float64(len(xs))*(1-q) >= 10 {
			return quantile(xs, q), q
		}
	}
	return quantile(xs, 0.75), 0.75
}

func secs(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// resetPeakRSS resets the kernel's VmHWM for this process so a later
// peakRSSMiB reads the high-water mark of the phase that follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM from /proc/self/status.
func peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// allocProbe reads cumulative heap allocation and GC CPU time, so a
// layer call's allocation and collector cost are deltas of two probes.
type allocProbe struct {
	allocBytes uint64
	gcCPU      float64
}

var probeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func probe() allocProbe {
	s := make([]metrics.Sample, len(probeSamples))
	copy(s, probeSamples)
	metrics.Read(s)
	var p allocProbe
	if s[0].Value.Kind() == metrics.KindUint64 {
		p.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		p.gcCPU = s[1].Value.Float64()
	}
	return p
}

func (p allocProbe) since(start allocProbe) (allocMiB, gcCPUs float64) {
	return float64(p.allocBytes-start.allocBytes) / (1 << 20), p.gcCPU - start.gcCPU
}

// liveHeapMiB forces a collection and returns the live heap.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
