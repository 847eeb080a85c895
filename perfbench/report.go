package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/metrics"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates one run's operation counts, correctness verdict and
// metrics, and prints them.
type report struct {
	attempted, failed int
	mismatched        int
	metrics           map[string]metric
	notes             []string
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) { r.metrics[name] = metric{v, unit} }

// op counts one attempted operation and whether it failed.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
	}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// timing records a latency distribution as name_p50_ms and name_tail_ms,
// the highest tail percentile the sample count supports, and notes both
// with the count.
func (r *report) timing(name string, ms []float64) {
	s := summarize(ms)
	r.set(name+"_p50_ms", s.p50, "ms")
	r.set(name+"_tail_ms", s.tail, "ms")
	r.note("%s: n=%d p50=%.4fms tail=p%g %.4fms", name, s.n, s.p50, s.tailPct, s.tail)
}

// print writes the human-readable lines and, last, the one-line JSON
// result restricted to the names in want.
func (r *report) print(w io.Writer, want []string) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	out := map[string]metric{}
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		out[name] = m
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-36s %14.6g %s\n", n, out[n].Value, out[n].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.mismatched == 0 && r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// heapSampler tracks the peak live-object heap seen at its sample points.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapSampler) peakMB() float64 { return float64(h.peak) / (1 << 20) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
