// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload from a seed, checks every result
// it compares against a brute-force reference, and prints one JSON line
// of metrics as the last line of its output:
//
//	perfbench --workload paper-tma-ant --seed 1 --seconds 20 --trace 0
//
// --trace 0 measures the end-to-end metrics through pkg/topkmon;
// --trace 1 replays the workload through the layer ladder and reports the
// per-layer metrics. See README.md for the metric definitions.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

// endToEnd lists the end-to-end metrics every untraced run reports.
// Register latency and the read tail moved by up to 28% between seeds on
// a shared 2-core host, too much to gate, so runs print them as notes;
// qindex.register_us covers registration on the bare engine.
var endToEnd = []string{
	"setup_s", "tuples_per_s", "cycle_p50_ms", "cycle_tail_ms", "read_p50_ms", "peak_heap_mb",
}

func main() {
	wlName := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measured run time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced layer ladder")
	workdir := flag.String("workdir", ".bench_build/perfbench", "scratch directory for checkpoints and traces")
	flag.Parse()
	if err := run(*wlName, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, dur time.Duration, trace bool, workdir string) error {
	wl, err := findWorkload(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	rep := newReport()
	want := endToEnd
	switch {
	case trace:
		want = perLayer
		err = runTraced(wl, seed, dur, workdir, rep)
	case wl.openLoop:
		err = runOpen(wl, seed, dur, workdir, rep)
	default:
		err = runClosed(wl, seed, dur, rep)
	}
	if err != nil {
		return err
	}
	if err := rep.print(os.Stdout, want); err != nil {
		return err
	}
	if !(rep.mismatched == 0 && rep.failed == 0) {
		return fmt.Errorf("%d mismatched queries, %d of %d operations failed", rep.mismatched, rep.failed, rep.attempted)
	}
	return nil
}
