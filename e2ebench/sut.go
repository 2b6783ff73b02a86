package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/edge"
	"tagwatch/internal/epc"
	"tagwatch/internal/fleet"
	"tagwatch/internal/llrp"
	"tagwatch/internal/motion"
	"tagwatch/internal/schedule"
)

// The traced composition ("e2ebench sut ...") is the system under test
// of a traced run. It composes the layers fleetd composes, through their
// public functions, in one process, and records a span around every
// call it makes into them:
//
//	fleet.New + Manager.Handler   the HTTP API (restore timed on Start)
//	core.New over a timing Device wrapping core.NewLLRPDevice, per reader
//	Subscribe → Ingest.Observe, then Ingest.UpdateAssessment and
//	Ingest.PublishCycle once per cycle
//	edge.NewClient + edge.NewServer on the edge workload
//
// motion and schedule are hidden behind core, so their timings come
// from replaying the recorded inputs through their public functions
// after the run. On SIGTERM it writes the spans and a report of
// per-layer metrics for the measured cycles.

// sutReport is what the traced composition hands back to the generator.
type sutReport struct {
	Metrics     map[string]metric `json:"metrics"`
	CycleErrors int               `json:"cycle_errors"`
	Cycles      []int             `json:"cycles"`
	// CallEnds holds, per reader, the Unix-ns return time of every
	// device call (one per ROSpec) from the start of the session.
	CallEnds [][]int64 `json:"call_ends"`
}

func (r *runResult) loadSUT(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("traced composition report: %w", err)
	}
	r.sut = new(sutReport)
	return json.Unmarshal(b, r.sut)
}

// cycleInfo is what the composition keeps of each cycle for the
// schedule replay and the core metrics.
type cycleInfo struct {
	present, targets []epc.EPC
	fellBack         bool
	masks            int
	collateral       int
	scheduleCost     time.Duration
	err              bool
}

// sutReader is one reader's session inside the composition. Only its
// own goroutine touches it until the session ends.
type sutReader struct {
	idx    int
	name   string
	spans  []span
	cur    int32 // current RunCycle span (-1 outside a cycle)
	cycle  int
	calls  []int64
	reads  []core.Reading
	readCy []int32
	cycles []cycleInfo
	// Bus sequence numbers at the start and end of the measured window.
	seqFrom, seqTo uint64
	winFrom, winTo int64
	// mark, when set, is called as the reader enters (end=false) and
	// leaves (end=true) the measured window.
	mark func(end bool)
}

func (sr *sutReader) begin(name string, parent int32) int32 {
	sr.spans = append(sr.spans, span{Name: name, Start: time.Now().UnixNano(), Parent: parent, Trace: traceID(sr.idx, sr.cycle)})
	return int32(len(sr.spans) - 1)
}

func (sr *sutReader) end(i int32) { sr.spans[i].End = time.Now().UnixNano() }

// timingDevice records a span around every device call.
type timingDevice struct {
	inner *core.LLRPDevice
	sr    *sutReader
}

func (d *timingDevice) ReadAll() ([]core.Reading, error) {
	s := d.sr.begin("llrp.ReadAll", d.sr.cur)
	r, err := d.inner.ReadAll()
	d.sr.end(s)
	d.sr.calls = append(d.sr.calls, d.sr.spans[s].End)
	return r, err
}

func (d *timingDevice) ReadSelective(masks []schedule.Bitmask, dwell time.Duration) ([]core.Reading, error) {
	s := d.sr.begin("llrp.ReadSelective", d.sr.cur)
	r, err := d.inner.ReadSelective(masks, dwell)
	d.sr.end(s)
	d.sr.calls = append(d.sr.calls, d.sr.spans[s].End)
	return r, err
}

func (d *timingDevice) Now() time.Duration { return d.inner.Now() }

// scrapeRec is one /metrics request served by the composition.
type scrapeRec struct {
	at, dur int64
	bytes   int
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

func sutMain(args []string) int {
	fs := flag.NewFlagSet("sut", flag.ContinueOnError)
	var (
		readers  = fs.String("readers", "", "NAME=ADDR,... LLRP readers")
		httpAddr = fs.String("http", "", "HTTP API address")
		edgeHTTP = fs.String("edge-http", "", "edge tier address (empty = no edge tier)")
		stateDir = fs.String("state-dir", "", "durable registry directory")
		warmup   = fs.Int("warmup", 0, "warm-up cycles per reader")
		measured = fs.Int("cycles", 0, "measured cycles per reader")
		report   = fs.String("report", "", "report file")
		spansOut = fs.String("spans", "", "span output file")
		_        = fs.Bool("quiet", true, "accepted for fleetd flag parity")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runSUT(*readers, *httpAddr, *edgeHTTP, *stateDir, *warmup, *measured, *report, *spansOut); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench sut: %v\n", err)
		return 1
	}
	return 0
}

func runSUT(readerList, httpAddr, edgeHTTP, stateDir string, warmup, measured int, reportPath, spansPath string) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	first, last := warmup+1, warmup+measured

	cfg := fleet.DefaultConfig()
	cfg.StateDir = stateDir
	t0 := time.Now()
	m := fleet.New(cfg)
	if err := m.Start(ctx); err != nil {
		return err
	}
	restoreS := time.Since(t0).Seconds()
	restored := m.Registry().Len()

	var (
		scrapeMu sync.Mutex
		scrapes  []scrapeRec
	)
	api := m.Handler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			api.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		api.ServeHTTP(cw, r)
		rec := scrapeRec{at: start.UnixNano(), dur: int64(time.Since(start)), bytes: cw.n}
		scrapeMu.Lock()
		scrapes = append(scrapes, rec)
		scrapeMu.Unlock()
	})
	lis, err := net.Listen("tcp", httpAddr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler, BaseContext: func(net.Listener) context.Context { return ctx }, ReadHeaderTimeout: 5 * time.Second}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Serve(lis)
	}()

	var et *edgeTier
	if edgeHTTP != "" {
		if et, err = startEdgeTier(ctx, httpAddr, edgeHTTP, &wg); err != nil {
			return err
		}
	}

	var rs []*sutReader
	for i, part := range strings.Split(readerList, ",") {
		name, addr, _ := strings.Cut(part, "=")
		sr := &sutReader{idx: i, name: name, cur: -1}
		if et != nil {
			sr.mark = et.mark
		}
		rs = append(rs, sr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			sr.run(ctx, m, addr, cfg.Tagwatch, first, last)
		}()
	}
	<-ctx.Done()
	sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	srv.Shutdown(sctx)
	cancel()
	srv.Close()
	wg.Wait()
	if err := m.Stop(); err != nil {
		return err
	}

	rep := sutReport{Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { rep.Metrics[name] = metric{v, unit} }
	var (
		cycleSelf, schedCost, observeUS []float64
		readings                        int
		seqFrom, seqTo                  uint64
		winFrom, winTo                  int64
		selects                         int
		masks, collateral               float64
		allSpans                        [][]span
	)
	for _, sr := range rs {
		rep.Cycles = append(rep.Cycles, sr.cycle)
		rep.CallEnds = append(rep.CallEnds, sr.calls)
		allSpans = append(allSpans, sr.spans)
		self := selfTimes(sr.spans)
		for i, s := range sr.spans {
			cy := int(s.Trace & 0xffffffff)
			if cy < first || cy > last {
				continue
			}
			switch s.Name {
			case "core.RunCycle":
				cycleSelf = append(cycleSelf, float64(self[i])/1e6)
			case "fleet.Ingest.Observe":
				observeUS = append(observeUS, float64(s.End-s.Start)/1e3)
			}
		}
		for c := first; c <= last && c <= len(sr.cycles); c++ {
			ci := sr.cycles[c-1]
			if ci.err {
				rep.CycleErrors++
			}
			schedCost = append(schedCost, float64(ci.scheduleCost)/1e6)
			if !ci.fellBack {
				selects++
				masks += float64(ci.masks)
				collateral += float64(ci.collateral)
			}
		}
		for _, c := range sr.readCy {
			if int(c) >= first && int(c) <= last {
				readings++
			}
		}
		if seqFrom == 0 || sr.seqFrom < seqFrom {
			seqFrom = sr.seqFrom
		}
		seqTo = max(seqTo, sr.seqTo)
		if winFrom == 0 || sr.winFrom < winFrom {
			winFrom = sr.winFrom
		}
		winTo = max(winTo, sr.winTo)
	}
	put("core.cycle_self_ms_p50", percentile(cycleSelf, 0.5), "ms")
	put("core.schedule_cost_ms_p50", percentile(schedCost, 0.5), "ms")
	put("fleet.observe_us_p50", percentile(observeUS, 0.5), "us")
	put("fleet.events_per_reading", ratio(float64(seqTo-seqFrom), float64(readings)), "count")
	put("schedule.select_calls", float64(selects), "count")
	put("schedule.masks_per_plan", ratio(masks, float64(selects)), "count")
	put("schedule.collateral_per_plan", ratio(collateral, float64(selects)), "count")
	put("statestore.restore_s", restoreS, "s")
	put("statestore.restored_tags", float64(restored), "count")

	var scrapeMS, scrapeBytes []float64
	for _, s := range scrapes {
		if s.at >= winFrom && s.at <= winTo {
			scrapeMS = append(scrapeMS, float64(s.dur)/1e6)
			scrapeBytes = append(scrapeBytes, float64(s.bytes))
		}
	}
	put("fleet.scrape_ms_p50", percentile(scrapeMS, 0.5), "ms")
	put("fleet.scrape_bytes", median(scrapeBytes), "B")

	relay := []float64{}
	if et != nil {
		relay = et.relayMS(winFrom, winTo)
		et.mu.Lock()
		put("fleet.sse_bytes_per_event", ratio(float64(et.win[1][0]-et.win[0][0]), float64(et.win[1][1]-et.win[0][1])), "B")
		et.mu.Unlock()
	}
	put("edge.relay_ms_p50", percentile(append([]float64(nil), relay...), 0.5), "ms")
	put("edge.relay_ms_p99", percentile(relay, 0.99), "ms")

	// Replays: the motion detector and the bitmask planner, fed the
	// inputs the run recorded, timed call by call.
	var observeNS, selectMS, buildMS []float64
	for _, sr := range rs {
		observeNS = append(observeNS, replayMotion(cfg.Tagwatch.Motion, sr.reads, sr.readCy, first, last)...)
		b, s := replaySchedule(cfg.Tagwatch.Schedule, sr.cycles, first, last)
		buildMS = append(buildMS, b...)
		selectMS = append(selectMS, s...)
	}
	put("motion.observe_ns_p50", percentile(observeNS, 0.5), "ns")
	put("schedule.index_build_ms_p50", percentile(buildMS, 0.5), "ms")
	put("schedule.select_ms_p50", percentile(append([]float64(nil), selectMS...), 0.5), "ms")
	put("schedule.select_ms_p90", percentile(selectMS, 0.9), "ms")

	if spansPath != "" {
		if err := writeSpans(spansPath, allSpans); err != nil {
			return err
		}
	}
	return writeJSONFile(reportPath, rep)
}

// run is one reader's session: dial, then Tagwatch cycles until the
// context ends or the link dies.
func (sr *sutReader) run(ctx context.Context, m *fleet.Manager, addr string, cfg core.Config, first, last int) {
	var conn *llrp.Conn
	for conn == nil {
		dctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		c, err := llrp.Dial(dctx, addr)
		cancel()
		if err == nil {
			conn = c
		} else if ctx.Err() != nil {
			return
		} else {
			time.Sleep(50 * time.Millisecond)
		}
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	// The session settings fleetd's supervisor applies.
	conn.SetOpTimeout(10 * time.Second)
	kctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	err := conn.StartKeepalive(kctx, 5*time.Second, 3)
	cancel()
	if err != nil {
		return
	}

	in := m.NewIngest(sr.name)
	tw := core.New(cfg, &timingDevice{inner: core.NewLLRPDevice(conn), sr: sr})
	tw.Subscribe(func(r core.Reading) {
		s := sr.begin("fleet.Ingest.Observe", sr.cur)
		in.Observe(r, time.Now())
		sr.end(s)
		sr.reads = append(sr.reads, r)
		sr.readCy = append(sr.readCy, int32(sr.cycle))
	})
	for ctx.Err() == nil {
		sr.cycle++
		if sr.cycle == first {
			sr.seqFrom, sr.winFrom = m.Bus().LastSeq(), time.Now().UnixNano()
			if sr.mark != nil {
				sr.mark(false)
			}
		}
		sr.cur = sr.begin("core.RunCycle", -1)
		rep := tw.RunCycle()
		sr.end(sr.cur)
		parent := sr.cur
		sr.cur = -1

		s := sr.begin("fleet.Ingest.UpdateAssessment", parent)
		mobile := make(map[epc.EPC]bool, len(rep.Mobile))
		for _, c := range rep.Mobile {
			mobile[c] = true
		}
		for _, c := range rep.Present {
			in.UpdateAssessment(c, mobile[c], tw.History().IRR(c))
		}
		sr.end(s)
		sum := &fleet.CycleSummary{
			Present: len(rep.Present), Mobile: len(rep.Mobile), Targets: len(rep.Targets),
			Masks: len(rep.Plan.Masks), FellBack: rep.FellBack,
			PhaseIReads: len(rep.PhaseIReads), PhaseIIReads: len(rep.PhaseIIReads),
			ScheduleCostU: rep.ScheduleCost.Microseconds(),
		}
		if rep.Err != nil {
			sum.Err = rep.Err.Error()
		}
		s = sr.begin("fleet.Ingest.PublishCycle", parent)
		in.PublishCycle(time.Now(), sum)
		sr.end(s)
		if sr.cycle == last {
			sr.seqTo, sr.winTo = m.Bus().LastSeq(), time.Now().UnixNano()
			if sr.mark != nil {
				sr.mark(true)
			}
		}
		sr.cycles = append(sr.cycles, cycleInfo{
			present: rep.Present, targets: rep.Targets, fellBack: rep.FellBack,
			masks: len(rep.Plan.Masks), collateral: rep.Plan.Collateral,
			scheduleCost: rep.ScheduleCost, err: rep.Err != nil,
		})
		if rep.Err != nil && conn.Err() != nil {
			return
		}
	}
}

// replayBatch is how many Observe calls one timing sample covers: a
// single call is too short to time against the clock's own cost.
const replayBatch = 16

// replayMotion feeds a reader's readings, in order, into a fresh Phase I
// detector and returns the per-call time (ns) of batches inside the
// measured cycles.
func replayMotion(cfg motion.Config, reads []core.Reading, cycles []int32, first, last int) []float64 {
	det := motion.NewPhaseMoG(cfg)
	var out []float64
	for i := 0; i < len(reads); {
		j := min(i+replayBatch, len(reads))
		t := time.Now()
		for _, r := range reads[i:j] {
			det.Observe(r.EPC, r.Antenna, r.Channel, r.PhaseRad, r.Time)
		}
		d := time.Since(t)
		if c := int(cycles[i]); c >= first && c <= last && j-i == replayBatch {
			out = append(out, float64(d)/replayBatch)
		}
		i = j
	}
	return out
}

// maxScheduleReplays bounds the planner replay per reader; Select is
// the slowest call in the program, and eight samples per reader give
// the median and p90 the report needs.
const maxScheduleReplays = 8

// replaySchedule rebuilds the index over each planned measured cycle's
// population and re-runs Select on its targets.
func replaySchedule(cfg schedule.Config, cycles []cycleInfo, first, last int) (buildMS, selectMS []float64) {
	for c := first; c <= last && c <= len(cycles) && len(selectMS) < maxScheduleReplays; c++ {
		ci := cycles[c-1]
		if ci.fellBack || len(ci.targets) == 0 {
			continue
		}
		t := time.Now()
		tbl, err := schedule.NewIndexTable(cfg, ci.present)
		if err != nil {
			continue
		}
		buildMS = append(buildMS, float64(time.Since(t))/1e6)
		t = time.Now()
		if _, err := tbl.Select(ci.targets); err == nil {
			selectMS = append(selectMS, float64(time.Since(t))/1e6)
		}
	}
	return buildMS, selectMS
}

// edgeTier is the composition's edge.Client + edge.Server, with the
// timestamps needed for the relay latency: when each downstream sequence
// number was applied, and when the server wrote it to a client.
type edgeTier struct {
	client  *edge.Client
	bytesIn atomic.Int64
	links   links

	mu      sync.Mutex
	applied map[uint64]int64
	// win holds (SSE bytes read, frames applied) when the first reader
	// entered the measured window and when the last one left it.
	win     [2][2]int64
	marked  bool
	written []seqAt
}

type seqAt struct {
	seq uint64
	at  int64
}

func startEdgeTier(ctx context.Context, upstream, addr string, wg *sync.WaitGroup) (*edgeTier, error) {
	et := &edgeTier{applied: make(map[uint64]int64)}
	et.client = edge.NewClient(edge.Config{Upstream: upstream, Dial: et.links.dial(&et.bytesIn)})
	context.AfterFunc(ctx, et.links.closeAll)
	sub := et.client.Bus().Subscribe(consumerBuffer)
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	wg.Add(3)
	go func() {
		defer wg.Done()
		et.client.Run(ctx)
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case ev := <-sub.C():
				t := time.Now().UnixNano()
				et.mu.Lock()
				et.applied[ev.Seq] = t
				et.mu.Unlock()
			case <-ctx.Done():
				sub.Close()
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		edge.NewServer(et.client).Serve(ctx, relayListener{Listener: lis, et: et})
	}()
	return et, nil
}

func (et *edgeTier) mark(end bool) {
	now := [2]int64{et.bytesIn.Load(), int64(et.client.Status().Frames)}
	et.mu.Lock()
	defer et.mu.Unlock()
	switch {
	case end:
		et.win[1] = now
	case !et.marked:
		et.win[0], et.marked = now, true
	}
}

// relayMS is, for every event written downstream inside the window, the
// time from the edge client applying it to the server writing it.
func (et *edgeTier) relayMS(from, to int64) []float64 {
	et.mu.Lock()
	defer et.mu.Unlock()
	var out []float64
	for _, w := range et.written {
		if a, ok := et.applied[w.seq]; ok && a >= from && a <= to {
			out = append(out, float64(w.at-a)/1e6)
		}
	}
	return out
}

type relayListener struct {
	net.Listener
	et *edgeTier
}

func (l relayListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &relayConn{Conn: c, et: l.et}, nil
}

// relayConn notes the sequence number of every SSE frame written.
type relayConn struct {
	net.Conn
	et *edgeTier
}

var idPrefix = []byte("id: ")

func (c *relayConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	at := time.Now().UnixNano()
	var seqs []uint64
	for rest := p; ; {
		i := bytes.Index(rest, idPrefix)
		if i < 0 {
			break
		}
		rest = rest[i+len(idPrefix):]
		line := rest
		if j := bytes.IndexByte(rest, '\n'); j >= 0 {
			line = rest[:j]
		}
		if _, seq, ok := fleet.ParseCursor(strings.TrimSpace(string(line))); ok {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) > 0 {
		c.et.mu.Lock()
		for _, s := range seqs {
			c.et.written = append(c.et.written, seqAt{seq: s, at: at})
		}
		c.et.mu.Unlock()
	}
	return n, err
}
