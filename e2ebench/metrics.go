package main

import "runtime"

// measuredCycles returns each reader's cycle records for the measured
// window (cycles W+1 … W+M).
func (r *runResult) measuredCycles() [][]cycleRec {
	out := make([][]cycleRec, len(r.taps))
	for i, t := range r.taps {
		t.mu.Lock()
		if len(t.cycles) >= r.warmup+r.cycles {
			out[i] = append([]cycleRec(nil), t.cycles[r.warmup:r.warmup+r.cycles]...)
		}
		t.mu.Unlock()
	}
	return out
}

// endToEnd computes the metrics a user of the system sees, and runs the
// checks that depend on them.
func (r *runResult) endToEnd() map[string]metric {
	var readerS, moverReads, expected float64
	var idle []float64
	cycles, selective := 0, 0
	for i, cs := range r.measuredCycles() {
		if len(cs) == 0 {
			continue
		}
		vs := float64(cs[len(cs)-1].endVT-cs[0].startVT) / 1e6
		readerS += vs
		expected += r.refRates[i] * vs
		for _, c := range cs {
			moverReads += float64(c.moverReads)
			idle = append(idle, float64(c.idle)/1e6)
			cycles++
			if c.selective {
				selective++
			}
		}
	}
	r.attempted = cycles + len(r.scrapeMS) + r.scrapeFails + r.readings
	r.failed = r.cycleErrors + r.scrapeFails + r.unmatched
	r.check(r.cycleErrors == 0, "%d cycles carried an error", r.cycleErrors)
	r.check(r.unmatched == 0, "%d readings never reached the consumer", r.unmatched)
	r.check(r.scrapeFails == 0, "%d scrapes failed", r.scrapeFails)

	gain := ratio(moverReads, expected)
	switch r.wl.name {
	case "sparse-movers":
		r.check(gain > 1, "mover_irr_gain %.3f is not above 1", gain)
		r.check(selective == cycles, "%d of %d measured cycles fell back to read-all", cycles-selective, cycles)
	case "crowd-fallback":
		r.check(selective == 0, "%d of %d measured cycles planned selectively; every cycle should fall back", selective, cycles)
	}
	genShare := ratio(r.genCPUS, r.wallS*float64(runtime.NumCPU()))
	late := percentile(nsToMS(r.lateness()), 0.99)
	r.check(genShare <= maxGenCPU, "generator used %.2f of the machine's CPU (bound %.2f)", genShare, maxGenCPU)
	r.check(late <= maxLatenessMS, "generator pacing ran %.1f ms late at p99 (bound %.0f ms)", late, maxLatenessMS)

	ages := nsToMS(r.ages)
	return map[string]metric{
		"reader_s_per_cpu_s": {ratio(readerS, r.cpuS), "s/s"},
		"cycle_idle_ms_p50":  {percentile(idle, 0.50), "ms"},
		"reading_age_ms_p50": {percentile(ages, 0.50), "ms"},
		"reading_age_ms_p99": {percentile(ages, 0.99), "ms"},
		"mover_irr_gain":     {gain, "ratio"},
		"setup_s":            {median(r.setupS), "s"},
		"rss_mb":             {median(r.rssMB), "MiB"},
	}
}

func (r *runResult) lateness() []int64 {
	var out []int64
	for _, t := range r.taps {
		t.mu.Lock()
		out = append(out, t.lateness...)
		t.mu.Unlock()
	}
	return out
}

// perLayer computes the per-layer metrics of a traced run: the wire-side
// ones from the taps and the consumer, the in-process ones from the
// traced composition's report.
func (r *runResult) perLayer() map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var specs, reads, bytes, cycles, fallbacks float64
	var idle []float64
	for _, cs := range r.measuredCycles() {
		for _, c := range cs {
			idle = append(idle, float64(c.idle)/1e6)
			cycles++
			specs += float64(c.specs)
			reads += float64(c.reads)
			bytes += float64(c.bytes)
			if !c.selective {
				fallbacks++
			}
		}
	}
	var rtts []int64
	for _, t := range r.taps {
		t.mu.Lock()
		rtts = append(rtts, t.rtts...)
		t.mu.Unlock()
	}
	// The idle tail and the scrape latency are reported here, without a
	// regression bound: ten runs spread them by 0.33 and 0.25 of their
	// medians (NOTES.md, Calibration).
	put("cycle_idle_ms_p90", percentile(idle, 0.90), "ms")
	put("scrape_ms_p50", percentile(r.scrapeMS, 0.50), "ms")
	put("llrp.rospecs_per_cycle", ratio(specs, cycles), "count")
	put("llrp.control_rtt_ms_p50", percentile(nsToMS(rtts), 0.5), "ms")
	put("llrp.bytes_per_reading", ratio(bytes, reads), "B")
	put("core.fallback_ratio", ratio(fallbacks, cycles), "ratio")
	put("core.readings_per_cycle", ratio(reads, cycles), "count")
	put("fleet.shed_ratio", r.shed, "ratio")
	pl := nsToMS(r.pubLat)
	put("fleet.publish_to_consumer_ms_p50", percentile(pl, 0.5), "ms")
	put("fleet.publish_to_consumer_ms_p99", percentile(pl, 0.99), "ms")
	put("statestore.journal_bytes_per_s", ratio(float64(r.journalBytes), r.wallS), "B/s")
	put("gen.lateness_ms_p99", percentile(nsToMS(r.lateness()), 0.99), "ms")
	put("gen.cpu_share", ratio(r.genCPUS, r.wallS*float64(runtime.NumCPU())), "ratio")

	link := r.linkDelta
	put("edge.gaps_per_cycle", ratio(float64(link.Gaps), cycles), "count")
	put("edge.healed_ratio", ratio(float64(link.GapsHealed), float64(link.Gaps)), "ratio")
	put("edge.resets", float64(link.Resets), "count")
	put("edge.contiguity_violations", float64(link.ContiguityViolations), "count")
	r.check(link.ContiguityViolations == 0, "edge link saw %d contiguity violations", link.ContiguityViolations)

	s := r.sut
	if s == nil {
		r.check(false, "traced run produced no report")
		return m
	}
	for k, v := range s.Metrics {
		m[k] = v
	}
	// The client that follows fleetd measures SSE bytes per frame: the
	// composition's own edge tier on the edge workload, the consumer
	// otherwise.
	if _, ok := m["fleet.sse_bytes_per_event"]; !ok {
		put("fleet.sse_bytes_per_event", ratio(float64(r.consBytes), float64(r.consFrames)), "B")
	}
	var drains []int64
	for i, t := range r.taps {
		if i >= len(s.CallEnds) {
			break
		}
		t.mu.Lock()
		ended := append([]specEnd(nil), t.ended...)
		t.mu.Unlock()
		calls := s.CallEnds[i]
		for j := 0; j < len(calls) && j < len(ended); j++ {
			if c := ended[j].cycle; int(c) > r.warmup && int(c) <= r.warmup+r.cycles {
				drains = append(drains, calls[j]-wallNS(ended[j].at))
			}
		}
	}
	put("llrp.drain_ms_p50", percentile(nsToMS(drains), 0.5), "ms")
	r.cycleErrors = s.CycleErrors
	for i, n := range s.Cycles {
		r.check(n >= r.warmup+r.cycles, "traced reader %d ran %d cycles, want %d", i, n, r.warmup+r.cycles)
	}
	if r.wl.name == "crowd-fallback" {
		r.check(s.Metrics["schedule.select_calls"].Value == 0, "crowd-fallback made %v Select calls", s.Metrics["schedule.select_calls"].Value)
	}
	if r.wl.durable > 0 {
		r.check(int(s.Metrics["statestore.restored_tags"].Value) == r.wl.durable,
			"traced composition restored %v tags, prepared %d", s.Metrics["statestore.restored_tags"].Value, r.wl.durable)
	}
	return m
}
