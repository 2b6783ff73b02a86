package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
)

// span is one timed call into a layer, recorded by the traced
// composition from outside the layer (around its public function).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // Unix ns
	End    int64  `json:"end"`
	Parent int32  `json:"parent"` // index of the causing span in the same reader's list, -1 for none
	Trace  uint64 `json:"trace"`  // reader<<32 | cycle
}

func traceID(reader, cycle int) uint64 { return uint64(reader)<<32 | uint64(uint32(cycle)) }

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its direct children (overlapping children counted
// once, children clipped to the parent's interval).
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s.Start, s.End, kids[int32(i)])
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sorted := append([][2]int64(nil), ivs...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a][0] < sorted[b][0] })
	var total int64
	curLo, curHi := int64(0), int64(0)
	open := false
	for _, iv := range sorted {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if a >= b {
			continue
		}
		switch {
		case !open:
			curLo, curHi, open = a, b, true
		case a <= curHi:
			curHi = max(curHi, b)
		default:
			total += curHi - curLo
			curLo, curHi = a, b
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes every reader's spans as JSON lines.
func writeSpans(path string, readers [][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, ss := range readers {
		for _, s := range ss {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
