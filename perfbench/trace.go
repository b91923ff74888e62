package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one op share
// its op id; a root span has parent -1.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"` // filled in by finish
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced path pays one nil check per boundary.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// forOp returns the tracer for op: every odd op is traced, so a traced
// run measures traced and untraced ops side by side.
func (t *tracer) forOp(op int) *tracer {
	if op%2 == 0 {
		return nil
	}
	return t
}

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Op: op, Parent: parent, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// finish computes every closed span's self time: its duration minus the
// part of its interval that its children cover.
func (t *tracer) finish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < 0 {
			continue
		}
		s.Self = s.End - s.Start - covered(children[s.ID], s.Start, s.End)
	}
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// durations returns the duration, in ms, of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// selfs returns the self time, in ms, of every closed span named name;
// finish must have run.
func (t *tracer) selfs(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, ms(time.Duration(s.Self)))
		}
	}
	return out
}

// medianMS is the median duration of the spans named name, in ms.
func (t *tracer) medianMS(name string) float64 { return median(t.durations(name)) }

// summary prints, per span name, the count and the median total and self
// time.
func (t *tracer) summary(w io.Writer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	type agg struct{ total, self []float64 }
	byName := make(map[string]*agg)
	var names []string
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.total = append(a.total, ms(s.dur()))
		a.self = append(a.self, ms(time.Duration(s.Self)))
	}
	slices.Sort(names)
	fmt.Fprintf(w, "%-28s %8s %14s %14s\n", "span", "count", "p50 total ms", "p50 self ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "%-28s %8d %14.4f %14.4f\n", n, len(a.total), median(a.total), median(a.self))
	}
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
