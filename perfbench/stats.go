package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	// minBeyond is how many samples must lie beyond the tail percentile.
	minBeyond = 10
	// maxTailPercentile caps the tail percentile: on a shared two-core
	// VM p95 and p99 mostly measure other tenants' time slices (NOTES.md
	// has the measurements).
	maxTailPercentile = 90
)

// median returns the median of xs (the mean of the middle two for an
// even count), or 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := max(1, int(math.Ceil(q*float64(len(s))/100)))
	return s[rank-1]
}

// tail is the highest integer percentile from p50 to maxTailPercentile
// that leaves at least minBeyond samples beyond it, by nearest rank.
type tail struct {
	Value      float64
	Percentile int
	N          int // samples
	Beyond     int // samples above the percentile's rank
}

// tailOf returns the tail of xs. ok is false when even p50 leaves fewer
// than minBeyond samples beyond it; the p50 figures are returned then.
func tailOf(xs []float64) (t tail, ok bool) {
	n := len(xs)
	if n == 0 {
		return tail{}, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	for q := maxTailPercentile; q >= 50; q-- {
		rank := int(math.Ceil(float64(q) * float64(n) / 100))
		if n-rank >= minBeyond || q == 50 {
			return tail{Value: s[rank-1], Percentile: q, N: n, Beyond: n - rank}, n-rank >= minBeyond
		}
	}
	panic("unreachable")
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// rtSample is a snapshot of the runtime counters a phase reports.
type rtSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

var rtMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSample {
	ms := make([]metrics.Sample, len(rtMetricNames))
	for i, name := range rtMetricNames {
		ms[i].Name = name
	}
	metrics.Read(ms)
	val := func(i int) metrics.Value { return ms[i].Value }
	var s rtSample
	if v := val(0); v.Kind() == metrics.KindUint64 {
		s.allocBytes = v.Uint64()
	}
	if v := val(1); v.Kind() == metrics.KindUint64 {
		s.gcCycles = v.Uint64()
	}
	if v := val(2); v.Kind() == metrics.KindFloat64 {
		s.gcCPU = v.Float64()
	}
	if v := val(3); v.Kind() == metrics.KindFloat64 {
		s.totalCPU = v.Float64()
	}
	return s
}

// add accumulates the counter deltas between two samples.
func (s *rtSample) add(from, to rtSample) {
	s.allocBytes += to.allocBytes - from.allocBytes
	s.gcCycles += to.gcCycles - from.gcCycles
	s.gcCPU += to.gcCPU - from.gcCPU
	s.totalCPU += to.totalCPU - from.totalCPU
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// allocatedBytes is the cumulative heap allocation so far. Reading the
// runtime/metrics counter does not stop the world.
func allocatedBytes() uint64 { return readRuntime().allocBytes }

// workers is the width of every pool, server and client fan-out.
func workers() int { return min(2, runtime.NumCPU()) }
