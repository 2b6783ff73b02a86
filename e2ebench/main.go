// Command e2ebench is tagwatch's end-to-end benchmark. It builds on the
// programs under test (cmd/fleetd, and cmd/edged on the edge workload),
// runs them as child processes, and drives them from this one process:
// paced llrp.Server emulators behind a wire tap, one edge.Client
// consumer following the event stream, and one open-loop /metrics
// scraper.
//
//	bash e2ebench/run.sh --workload sparse-movers --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 the run is repeated against a traced
// in-process composition of the same layers (see sut.go) and the
// metrics are the per-layer ones plus the tracing overhead. NOTES.md
// describes every metric, the workloads and the noise sources.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workload is one input shape. Every field is fixed: the only input a
// run takes is the seed.
type workload struct {
	name       string
	readers    int
	tags       int     // tags per reader, movers included
	moverShare float64 // fraction of tags on the turntable
	edge       bool    // consumer attaches through an edged child
	durable    int     // tags in the restored -state-dir (0 = no state dir)

	scale  float64 // wall seconds per virtual second while measuring
	warmup int     // free-running cycles per reader in set-up
	settle int     // paced cycles per reader between set-up and the window
	// cyclesPerSecond converts --seconds into the fixed number of
	// measured cycles per reader; it is the calibrated paced cycle rate.
	cyclesPerSecond float64
	scrapeEvery     time.Duration
}

func (w workload) movers() int { return int(float64(w.tags)*w.moverShare + 0.5) }

// measuredCycles is the fixed work of one run.
func (w workload) measuredCycles(seconds int) int {
	return max(4, int(float64(seconds)*w.cyclesPerSecond+0.5))
}

// scrapes is how many scrapes a window of m cycles gets: as many as fit
// in 90% of its nominal length, so a slightly short window still issues
// them all.
func (w workload) scrapes(m int) int {
	return max(1, int(0.9*float64(m)/w.cyclesPerSecond/w.scrapeEvery.Seconds()))
}

var workloads = []workload{
	{name: "sparse-movers", readers: 2, tags: 400, moverShare: 0.05,
		scale: 0.1, warmup: 28, settle: 2, cyclesPerSecond: 1.1, scrapeEvery: 250 * time.Millisecond},
	{name: "crowd-fallback", readers: 2, tags: 400, moverShare: 0.30, edge: true,
		scale: 0.1, warmup: 3, settle: 2, cyclesPerSecond: 1.1, scrapeEvery: 250 * time.Millisecond},
	{name: "durable-scrape", readers: 2, tags: 400, moverShare: 0.30, durable: 20000,
		scale: 0.1, warmup: 3, settle: 6, cyclesPerSecond: 1.1, scrapeEvery: 2 * time.Second},
}

// epoch anchors every timestamp the benchmark takes (monotonic).
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// wallNS converts a nowNS timestamp to Unix nanoseconds, for comparison
// with wall-clock times stamped by the child processes.
func wallNS(t int64) int64 { return epoch.UnixNano() + t }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		os.Exit(sutMain(os.Args[2:]))
	}
	os.Exit(benchMain())
}

func benchMain() int {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "nominal measured seconds; fixes the measured cycle count")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin     = flag.String("bin", "", "directory holding the fleetd and edged binaries")
		work    = flag.String("work", "", "scratch directory for caches, state copies and logs")
	)
	flag.Parse()
	var wl workload
	for _, w := range workloads {
		if w.name == *name {
			wl = w
		}
	}
	if wl.name == "" || *bin == "" || *work == "" || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: need -bin, -work, -seconds >= 1 and -workload, one of:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	env := runEnv{wl: wl, seed: *seed, seconds: *seconds, bin: *bin, work: *work, self: self}

	var res result
	if *trace == 0 {
		env.setups = 3
		r, err := env.run(false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
		res = r.result(r.endToEnd())
	} else {
		env.setups = 1
		base, err := env.run(false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: untraced pass: %v\n", err)
			return 1
		}
		traced, err := env.run(true)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: traced pass: %v\n", err)
			return 1
		}
		m := traced.perLayer()
		be, te := base.endToEnd(), traced.endToEnd()
		for k, v := range te {
			m["overhead."+k] = metric{Value: v.Value - be[k].Value, Unit: v.Unit}
		}
		res = traced.result(m)
		res.Correct = res.Correct && base.result(be).Correct
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// result folds a run's checks and operation counts around its metrics.
func (r *runResult) result(m map[string]metric) result {
	fmt.Fprintf(os.Stderr, "e2ebench: %s traced=%v: %d+%d cycles/reader, last fallback cycle per reader %v, window %.2fs, server CPU %.2fs, generator CPU %.2fs, %d readings, %d scrapes, setups %.2f s\n",
		r.wl.name, r.traced, r.warmup, r.cycles, r.lastFallbacks(), r.wallS, r.cpuS, r.genCPUS, r.readings, len(r.scrapeMS), r.setupS)
	for _, f := range r.checks {
		fmt.Fprintf(os.Stderr, "e2ebench: check failed: %s\n", f)
	}
	return result{Correct: len(r.checks) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// lastFallbacks is each reader's last cycle that fell back to read-all:
// the evidence behind a workload's warm-up count.
func (r *runResult) lastFallbacks() []int {
	out := make([]int, len(r.taps))
	for i, t := range r.taps {
		t.mu.Lock()
		for c, cy := range t.cycles {
			if !cy.selective {
				out[i] = c + 1
			}
		}
		t.mu.Unlock()
	}
	return out
}

func logPath(work, name string) string { return filepath.Join(work, "logs", name) }
