// Command benchjson converts `go test -bench -benchmem` output on stdin
// into the checked-in perf-trajectory file BENCH_core.json: one record
// per benchmark with ns/op, B/op, and allocs/op, sorted by (package,
// name) so diffs against the previous trajectory point are stable.
//
// With -check FILE it instead gates the run against a checked-in file:
// it exits 1 when any benchmark's allocs/op exceeds FILE's by more than
// max(2, 1%), or when a benchmark in FILE is missing from the run.
// Allocation counts, unlike ns/op, carry across machines.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson > BENCH_core.json
//	go test -run '^$' -bench . -benchmem ./... | benchjson -check BENCH_core.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark measurement.
type Result struct {
	Pkg  string `json:"pkg"`
	Name string `json:"name"`
	Runs int64  `json:"runs"`
	// NsPerOp is wall time per operation; BPerOp/AllocsPerOp are -1 when
	// the run did not report memory stats.
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Output is the BENCH_core.json document.
type Output struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	check := flag.String("check", "", "gate allocs/op on stdin against this BENCH_core.json instead of printing JSON")
	flag.Parse()
	out, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(out.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	if *check != "" {
		raw, err := os.ReadFile(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		var base Output
		if err := json.Unmarshal(raw, &base); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", *check, err)
			os.Exit(1)
		}
		problems := checkAllocs(base, out)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "benchjson:", p)
		}
		if len(problems) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: allocs/op of %d benchmarks within max(2, 1%%) of %s\n", len(base.Benchmarks), *check)
		return
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if _, err := os.Stdout.Write(b); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func parse(sc *bufio.Scanner) (Output, error) {
	var out Output
	pkg := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
		case strings.HasPrefix(line, "goos: "):
			out.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
		case strings.HasPrefix(line, "goarch: "):
			out.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
		case strings.HasPrefix(line, "Benchmark"):
			r, ok, err := parseBench(line, pkg)
			if err != nil {
				return Output{}, err
			}
			if ok {
				out.Benchmarks = append(out.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Output{}, err
	}
	sort.Slice(out.Benchmarks, func(i, j int) bool {
		a, b := out.Benchmarks[i], out.Benchmarks[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		return a.Name < b.Name
	})
	return out, nil
}

// parseBench decodes one result line:
//
//	BenchmarkName-8   1000   1234 ns/op   512 B/op   10 allocs/op
//
// returning ok=false for benchmark lines with no measurements (e.g. a
// bare name echoed under -v).
func parseBench(line, pkg string) (Result, bool, error) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Result{}, false, nil
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	// Strip the -GOMAXPROCS suffix so the name is stable across machines.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false, fmt.Errorf("bad run count in %q: %w", line, err)
	}
	ns, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return Result{}, false, fmt.Errorf("bad ns/op in %q: %w", line, err)
	}
	r := Result{Pkg: pkg, Name: name, Runs: runs, NsPerOp: ns, BPerOp: -1, AllocsPerOp: -1}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "B/op":
			r.BPerOp = v
		case "allocs/op":
			r.AllocsPerOp = v
		}
	}
	return r, true, nil
}

// checkAllocs returns one line per gated benchmark of base whose allocs/op
// in got exceeds base's by more than max(2, 1%), or that got lacks.
// Benchmarks only in got are new and not gated.
func checkAllocs(base, got Output) []string {
	type key struct{ pkg, name string }
	have := make(map[key]Result, len(got.Benchmarks))
	for _, r := range got.Benchmarks {
		have[key{r.Pkg, r.Name}] = r
	}
	var problems []string
	for _, b := range base.Benchmarks {
		if b.AllocsPerOp < 0 {
			continue
		}
		r, ok := have[key{b.Pkg, b.Name}]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("%s %s: missing from the run", b.Pkg, b.Name))
		case r.AllocsPerOp < 0:
			problems = append(problems, fmt.Sprintf("%s %s: run has no allocs/op (use -benchmem)", b.Pkg, b.Name))
		case float64(r.AllocsPerOp-b.AllocsPerOp) > math.Max(2, 0.01*float64(b.AllocsPerOp)):
			problems = append(problems, fmt.Sprintf("%s %s: %d allocs/op, checked in %d", b.Pkg, b.Name, r.AllocsPerOp, b.AllocsPerOp))
		}
	}
	return problems
}
