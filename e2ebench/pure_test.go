package main

import (
	"math"
	"reflect"
	"testing"
)

func TestMatchAges(t *testing.T) {
	// Reports 3, 4, 5 of one (reader, EPC), written at 10, 20, 30. The
	// consumer saw count 2 (older), then 4 at 25 (covers reports 3 and
	// 4), then 7 at 40 (covers 5).
	images := []countAt{{t: 5, count: 2}, {t: 25, count: 4}, {t: 40, count: 7}}
	ages, unmatched := matchAges(3, []int64{10, 20, 30}, images)
	if want := []int64{15, 5, 10}; !reflect.DeepEqual(ages, want) || unmatched != 0 {
		t.Fatalf("ages %v unmatched %d, want %v 0", ages, unmatched, want)
	}

	// A report no image reaches is unmatched, and so is every later one.
	ages, unmatched = matchAges(3, []int64{10, 20, 30}, images[:2])
	if want := []int64{15, 5}; !reflect.DeepEqual(ages, want) || unmatched != 1 {
		t.Fatalf("ages %v unmatched %d, want %v 1", ages, unmatched, want)
	}
	if ages, unmatched = matchAges(1, []int64{1, 2}, nil); len(ages) != 0 || unmatched != 2 {
		t.Fatalf("no images: ages %v unmatched %d", ages, unmatched)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want float64
	}{
		{0.99, 1000, 0.99}, // exactly 10 samples beyond p99
		{0.99, 5000, 0.99},
		{0.99, 200, 0.95}, // lowered until 10 samples lie beyond
		{0.90, 40, 0.75},
		{0.90, 12, 0.5}, // never below the median
		{0.50, 1000, 0.5},
	} {
		if got := tailQuantile(c.p, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%v, %d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
}

func TestPercentileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{11, 40, 200, 1000, 4321} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // reversed: percentile must sort
		}
		v := percentile(xs, 0.99)
		beyond := n - int(v)
		switch {
		case n >= 1000 && v != math.Ceil(0.99*float64(n)):
			t.Errorf("n=%d: p99 reported %v, want the nearest-rank p99 %v", n, v, math.Ceil(0.99*float64(n)))
		case n >= 20 && n < 1000 && beyond != minTail:
			t.Errorf("n=%d: p99 reported %v with %d samples beyond, want %d", n, v, beyond, minTail)
		}
		if v < float64(n)/2 {
			t.Errorf("n=%d: p99 reported %v, below the median", n, v)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses must not shift fields.
	line := "4242 (fleet d) (x)) S 1 4242 4242 0 -1 4194560 1000 0 0 0 250 75 0 0 20 0 9 0 12345 1000000 512 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	s, err := parseProcStat(line)
	if err != nil {
		t.Fatal(err)
	}
	if s.cpuSeconds != 3.25 {
		t.Errorf("cpu = %v s, want 3.25 (250+75 ticks)", s.cpuSeconds)
	}
	if want := int64(512 * pageSize()); s.rssBytes != want {
		t.Errorf("rss = %d, want %d", s.rssBytes, want)
	}
	if _, err := parseProcStat("4242 (short) S 1 2"); err == nil {
		t.Error("truncated stat line parsed")
	}
	if _, err := parseProcStat("no parens at all"); err == nil {
		t.Error("stat line without a command field parsed")
	}
	if _, err := readProc("self"); err != nil {
		t.Errorf("reading this process's stat: %v", err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "core.RunCycle", Start: 0, End: 100, Parent: -1},
		{Name: "llrp.ReadAll", Start: 10, End: 40, Parent: 0},
		{Name: "fleet.Ingest.Observe", Start: 30, End: 50, Parent: 0}, // overlaps the previous child
		{Name: "llrp.ReadSelective", Start: 90, End: 120, Parent: 0},  // runs past the parent
		{Name: "inner", Start: 12, End: 20, Parent: 1},
	}
	got := selfTimes(spans)
	// RunCycle: 100 − |[10,50) ∪ [90,100)| = 100 − 50.
	want := []int64{50, 22, 20, 30, 8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}
