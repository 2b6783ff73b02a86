package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: tagwatch/internal/llrp
cpu: whatever
BenchmarkROAccessReportEncode-8   	 1000000	      1234 ns/op	     512 B/op	      10 allocs/op
BenchmarkROAccessReportDecode-8   	  500000	      2468.5 ns/op
PASS
ok  	tagwatch/internal/llrp	2.345s
pkg: tagwatch/internal/fleet
BenchmarkRegistryObserve-8        	 2000000	       321 ns/op	      64 B/op	       2 allocs/op
PASS
`

func TestParse(t *testing.T) {
	out, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Goos != "linux" || out.Goarch != "amd64" {
		t.Fatalf("goos/goarch: %q/%q", out.Goos, out.Goarch)
	}
	if len(out.Benchmarks) != 3 {
		t.Fatalf("got %d benchmarks, want 3: %+v", len(out.Benchmarks), out.Benchmarks)
	}
	// Sorted by (pkg, name): fleet first.
	first := out.Benchmarks[0]
	if first.Pkg != "tagwatch/internal/fleet" || first.Name != "RegistryObserve" {
		t.Fatalf("first = %+v", first)
	}
	if first.Runs != 2000000 || first.NsPerOp != 321 || first.BPerOp != 64 || first.AllocsPerOp != 2 {
		t.Fatalf("first values = %+v", first)
	}
	// The -8 GOMAXPROCS suffix is stripped; missing -benchmem fields are -1.
	dec := out.Benchmarks[1]
	if dec.Name != "ROAccessReportDecode" || dec.NsPerOp != 2468.5 || dec.BPerOp != -1 || dec.AllocsPerOp != -1 {
		t.Fatalf("decode = %+v", dec)
	}
}

func TestParseRejectsGarbageCounts(t *testing.T) {
	_, err := parse(bufio.NewScanner(strings.NewReader("BenchmarkX-4 nope 12 ns/op\n")))
	if err == nil {
		t.Fatal("bad run count must error")
	}
}

func TestCheckAllocs(t *testing.T) {
	res := func(name string, allocs int64) Result {
		return Result{Pkg: "p", Name: name, AllocsPerOp: allocs}
	}
	base := Output{Benchmarks: []Result{
		res("Small", 10), res("Large", 1000), res("Gone", 5), res("NoMem", -1), res("Fewer", 50),
	}}
	got := Output{Benchmarks: []Result{
		res("Small", 12),   // +2: within the absolute slack
		res("Large", 1011), // +11 > 1% of 1000
		res("NoMem", 7),
		res("Fewer", 3),
		res("New", 99), // not in base: not gated
	}}
	problems := checkAllocs(base, got)
	want := []string{
		"p Large: 1011 allocs/op, checked in 1000",
		"p Gone: missing from the run",
	}
	if strings.Join(problems, "\n") != strings.Join(want, "\n") {
		t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(problems, "\n"), strings.Join(want, "\n"))
	}
	got.Benchmarks[0].AllocsPerOp = 13 // +3 > max(2, 0.1)
	if p := checkAllocs(base, got); len(p) != 3 || p[0] != "p Small: 13 allocs/op, checked in 10" {
		t.Fatalf("small regression not caught: %q", p)
	}
}
