package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tagwatch/internal/edge"
	"tagwatch/internal/fleet"
	"tagwatch/internal/llrp"
	"tagwatch/internal/reader"
)

// Fixed ports keep runs comparable: edged seeds its reconnect jitter
// from the upstream address.
const (
	apiAddr      = "127.0.0.1:39080"
	edgeAddr     = "127.0.0.1:39081"
	llrpPortLow  = 39084
	phaseIIDwell = 5 * time.Second
)

// Generator validity bounds: past these the generator, not the program,
// would be what the numbers measure.
const (
	maxLatenessMS = 25.0
	maxGenCPU     = 0.5
)

type runEnv struct {
	wl      workload
	seed    int64
	seconds int
	setups  int
	bin     string
	work    string
	self    string
}

// stack is one set-up of the system under test and its drivers.
type stack struct {
	taps     []*readerTap
	servers  []*llrp.Server
	procs    []*child
	edge     bool
	cons     *consumer
	stateDir string
	report   string // traced composition's report file
}

// runResult is everything one measured run observed.
type runResult struct {
	wl     workload
	traced bool
	warmup int // cycles per reader before the window: warm-up + settle
	cycles int // measured cycles per reader

	setupS   []float64
	taps     []*readerTap
	refRates []float64

	wallS, cpuS, genCPUS float64
	rssMB                []float64
	scrapeMS             []float64
	scrapeFails          int
	ages                 []int64
	unmatched, readings  int
	pubLat               []int64
	consBytes            int64
	consFrames           uint64
	shed                 float64
	linkDelta            edge.ClientStatus
	journalBytes         int64
	cycleErrors          int
	sut                  *sutReport

	checks    []string // failed checks
	attempted int
	failed    int
}

func (r *runResult) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// run performs e.setups set-ups and measures the last one.
func (e runEnv) run(traced bool) (*runResult, error) {
	res := &runResult{wl: e.wl, traced: traced, warmup: e.wl.warmup + e.wl.settle, cycles: e.wl.measuredCycles(e.seconds)}
	var err error
	if res.refRates, err = moverReferenceRate(e.work, e.wl, e.seed); err != nil {
		return nil, err
	}
	prepared := ""
	if e.wl.durable > 0 {
		if prepared, err = prepareState(e.work, e.wl.durable); err != nil {
			return nil, err
		}
	}
	for s := 0; s < e.setups; s++ {
		st, setupS, err := e.setup(traced, prepared, res, s == e.setups-1)
		if err != nil {
			if st != nil {
				st.teardown()
			}
			return nil, err
		}
		res.setupS = append(res.setupS, setupS)
		if s < e.setups-1 {
			st.teardown()
			continue
		}
		merr := e.measure(st, res)
		st.teardown()
		if merr != nil {
			return nil, merr
		}
		if traced {
			if err := res.loadSUT(st.report); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// setup starts emulators and server processes and returns once every
// reader has finished its warm-up cycles, with the consumer attached and
// caught up when attach is set.
func (e runEnv) setup(traced bool, prepared string, res *runResult, attach bool) (*stack, float64, error) {
	wl := e.wl
	st := &stack{edge: wl.edge}
	var readerArgs []string
	for i := 0; i < wl.readers; i++ {
		scn, codes, err := buildScene(e.seed, i, wl.tags-wl.movers(), wl.movers())
		if err != nil {
			return st, 0, err
		}
		tap := newReaderTap(fmt.Sprintf("r%d", i), codes, wl.movers(), phaseIIDwell)
		tap.limit.Store(int64(wl.warmup))
		srv := llrp.NewServer(reader.New(reader.DefaultConfig(), scn), llrp.ServerConfig{})
		addr := fmt.Sprintf("127.0.0.1:%d", llrpPortLow+i)
		lis, err := net.Listen("tcp", addr)
		if err != nil {
			return st, 0, fmt.Errorf("emulator listen: %w", err)
		}
		srv.Serve(tapListener{Listener: lis, tap: tap})
		st.taps = append(st.taps, tap)
		st.servers = append(st.servers, srv)
		readerArgs = append(readerArgs, tap.name+"="+addr)
	}
	if prepared != "" {
		st.stateDir = filepath.Join(e.work, "state-run")
		if err := copyDir(prepared, st.stateDir); err != nil {
			return st, 0, err
		}
		// Write the copy back now, not under fleetd's journal fsyncs.
		syscall.Sync()
	}
	if err := os.MkdirAll(filepath.Join(e.work, "logs"), 0o755); err != nil {
		return st, 0, err
	}

	t0 := nowNS()
	args := []string{"-readers", strings.Join(readerArgs, ","), "-http", apiAddr, "-quiet"}
	if st.stateDir != "" {
		args = append(args, "-state-dir", st.stateDir)
	}
	prog := filepath.Join(e.bin, "fleetd")
	if traced {
		prog = e.self
		st.report = filepath.Join(e.work, "sut-report.json")
		os.Remove(st.report)
		args = append([]string{"sut"}, args...)
		args = append(args, "-warmup", strconv.Itoa(res.warmup), "-cycles", strconv.Itoa(res.cycles),
			"-report", st.report, "-spans", filepath.Join(e.work, fmt.Sprintf("spans-%s-%d.jsonl", wl.name, e.seed)))
		if wl.edge {
			args = append(args, "-edge-http", edgeAddr)
		}
	}
	p, err := startChild(prog, args, logPath(e.work, filepath.Base(prog)+".log"))
	if err != nil {
		return st, 0, err
	}
	st.procs = append(st.procs, p)
	deadline := time.Now().Add(40 * time.Second)
	if err := waitHTTP(apiAddr, "/healthz", deadline, nil); err != nil {
		return st, 0, fmt.Errorf("%s: %w", prog, err)
	}
	follow := apiAddr
	if wl.edge {
		if !traced {
			p, err := startChild(filepath.Join(e.bin, "edged"), []string{"-upstream", apiAddr, "-http", edgeAddr, "-quiet"}, logPath(e.work, "edged.log"))
			if err != nil {
				return st, 0, err
			}
			st.procs = append(st.procs, p)
		}
		if err := waitHTTP(edgeAddr, "/api/status", deadline, func(b []byte) bool {
			var s struct{ Link edge.ClientStatus }
			return json.Unmarshal(b, &s) == nil && s.Link.Connected
		}); err != nil {
			return st, 0, fmt.Errorf("edge tier: %w", err)
		}
		follow = edgeAddr
	}

	for !st.allHeldAt(wl.warmup + 1) {
		if time.Now().After(deadline) {
			return st, 0, fmt.Errorf("warm-up of %d cycles did not finish (%s)", wl.warmup, st.progress())
		}
		if err := st.procsAlive(); err != nil {
			return st, 0, err
		}
		time.Sleep(2 * time.Millisecond)
	}
	setupS := float64(nowNS()-t0) / 1e9
	if !attach {
		return st, setupS, nil
	}

	// The consumer attaches once warm-up is done and anchors on a
	// snapshot while the readers are held; the paced settle cycles that
	// follow let it catch up. Attached during a free-running warm-up it
	// would fall off the 4096-event ring again and again, each time
	// re-anchoring on a full snapshot. Waiting here for a full catch-up
	// does not work: a hop shed at the tail of the last burst learns of
	// its gap only with the next event or SSE heartbeat (15 s), and the
	// hold must stay well under fleetd's 10 s operation timeout.
	where := make(map[string][2]int32)
	names := make([]string, len(st.taps))
	sizes := make([]int, len(st.taps))
	for i, tap := range st.taps {
		names[i], sizes[i] = tap.name, len(tap.pop)
		for c, j := range tap.pop {
			where[c.String()] = [2]int32{int32(i), j}
		}
	}
	st.cons = startConsumer(follow, names, where, sizes)
	for anchor := time.Now().Add(7 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if s := st.cons.client.Status(); s.Connected && s.Identity != "" {
			return st, setupS, nil
		}
		if time.Now().After(anchor) {
			return st, 0, errors.New("consumer did not anchor within 7 s of set-up")
		}
	}
}

func (st *stack) allHeldAt(cycle int) bool {
	for _, t := range st.taps {
		if t.heldAt() != cycle {
			return false
		}
	}
	return true
}

// progress describes where each reader is, for error messages.
func (st *stack) progress() string {
	var parts []string
	for _, t := range st.taps {
		t.mu.Lock()
		parts = append(parts, fmt.Sprintf("%s: %d cycles, phase %d, held %d", t.name, len(t.cycles), t.phase, t.held))
		t.mu.Unlock()
	}
	return strings.Join(parts, "; ")
}

func (st *stack) procsAlive() error {
	for _, p := range st.procs {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited early: %v (log %s)", p.name, p.err, p.log)
		default:
		}
	}
	return nil
}

func (st *stack) serverCPU() (float64, error) {
	var sum float64
	for _, p := range st.procs {
		s, err := readProc(p.pid)
		if err != nil {
			return 0, err
		}
		sum += s.cpuSeconds
	}
	return sum, nil
}

func (st *stack) serverRSS() float64 {
	var sum int64
	for _, p := range st.procs {
		if s, err := readProc(p.pid); err == nil {
			sum += s.rssBytes
		}
	}
	return float64(sum) / (1 << 20)
}

// teardown stops the consumer, the emulators and the server processes,
// and waits for all of them.
func (st *stack) teardown() {
	if st.cons != nil {
		st.cons.stop()
	}
	for _, t := range st.taps {
		t.close()
	}
	for _, s := range st.servers {
		s.Close()
	}
	for i := len(st.procs) - 1; i >= 0; i-- {
		st.procs[i].stop()
	}
}

// measure runs the fixed measured cycles on a set-up stack and checks
// the outputs.
func (e runEnv) measure(st *stack, res *runResult) error {
	wl := e.wl
	W, M := res.warmup, res.cycles
	res.taps = st.taps

	// Settle: a few paced cycles between set-up and the window, so the
	// consumer's catch-up burst (a full snapshot, 100k tags on
	// durable-scrape) is out of the program's heap and queues before
	// anything is measured.
	for _, t := range st.taps {
		t.setScale(wl.scale)
		t.setLimit(W)
	}
	deadline := time.Now().Add(time.Duration(wl.settle)*10*time.Second + 30*time.Second)
	for !st.allHeldAt(W + 1) {
		if time.Now().After(deadline) || st.procsAlive() != nil {
			return fmt.Errorf("settle cycles did not finish (%v; %s)", st.procsAlive(), st.progress())
		}
		time.Sleep(2 * time.Millisecond)
	}

	cpu0, err := st.serverCPU()
	if err != nil {
		return err
	}
	gen0, err := readProc("self")
	if err != nil {
		return err
	}
	ev0, err := busStatus(apiAddr)
	if err != nil {
		return err
	}
	link0 := st.followLink()
	bytes0, frames0 := st.cons.bytesIn.Load(), st.cons.client.Status().Frames
	journal0 := dirBytes(st.stateDir)
	ws := nowNS()
	st.cons.window.Store(true)
	for _, t := range st.taps {
		t.setLimit(W + M)
	}

	stop := make(chan struct{})
	var bg sync.WaitGroup
	var mu sync.Mutex
	bg.Add(2)
	go func() {
		defer bg.Done()
		scrapeLoop(stop, wl.scrapeEvery, wl.scrapes(M), func(ms float64, err error) {
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				res.scrapeFails++
				return
			}
			res.scrapeMS = append(res.scrapeMS, ms)
		})
	}()
	go func() {
		defer bg.Done()
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				v := st.serverRSS()
				mu.Lock()
				res.rssMB = append(res.rssMB, v)
				mu.Unlock()
			}
		}
	}()

	deadline = time.Now().Add(time.Duration(M)*10*time.Second + 60*time.Second)
	for !st.allHeldAt(W + M + 1) {
		if time.Now().After(deadline) || st.procsAlive() != nil {
			close(stop)
			bg.Wait()
			return fmt.Errorf("measured cycles did not finish (%v)", st.procsAlive())
		}
		time.Sleep(2 * time.Millisecond)
	}
	we := nowNS()
	cpu1, err := st.serverCPU()
	if err != nil {
		close(stop)
		bg.Wait()
		return err
	}
	gen1, _ := readProc("self")
	st.cons.window.Store(false)
	close(stop)
	bg.Wait()
	res.wallS = float64(we-ws) / 1e9
	res.cpuS = cpu1 - cpu0
	res.genCPUS = gen1.cpuSeconds - gen0.cpuSeconds
	res.journalBytes = dirBytes(st.stateDir) - journal0
	if ev1, err := busStatus(apiAddr); err == nil {
		res.shed = ratio(float64(ev1.Dropped-ev0.Dropped), float64(ev1.Published-ev0.Published))
	}
	res.linkDelta = linkDiff(link0, st.followLink())
	res.consBytes = st.cons.bytesIn.Load() - bytes0
	res.consFrames = st.cons.client.Status().Frames - frames0
	if !res.traced {
		counters, err := fetchCounters(apiAddr)
		if err != nil {
			return err
		}
		for _, t := range st.taps {
			res.cycleErrors += int(counters[`tagwatch_fleet_reader_cycle_errors_total{reader="`+t.name+`"}`])
			n := int(counters[`tagwatch_fleet_reader_cycles_total{reader="`+t.name+`"}`])
			res.check(n == W+M, "fleetd ran %d cycles on %s, the wire parse counted %d", n, t.name, W+M)
		}
	}

	// Drain: the consumer has everything once its cursor reaches the
	// server's last sequence number (on every hop). A subscriber shed at
	// the tail of the last burst only learns of its gap with the next
	// event or the next SSE heartbeat (15 s); severing the readers makes
	// fleetd publish their state changes at once, which flushes it.
	for i, t := range st.taps {
		t.close()
		st.servers[i].Close()
	}
	drained := st.drain(time.Now().Add(30 * time.Second))
	res.check(drained, "consumer did not drain to the server's last sequence number within 30s")

	// The consumer's mirror must equal the registry.
	tags, err := fetchTags(apiAddr)
	if err != nil {
		return err
	}
	mirror := st.cons.client.Snapshot()
	res.check(sameRegistry(tags, mirror), "consumer mirror (%d tags) differs from /api/tags (%d tags)", len(mirror), len(tags))
	archived := 0
	for _, t := range tags {
		if _, live := st.cons.where[t.EPC]; !live {
			archived++
		}
	}
	res.check(archived == wl.durable, "registry holds %d archived tags, the prepared state has %d", archived, wl.durable)
	res.check(st.cons.sub.Dropped() == 0, "the consumer itself shed %d events", st.cons.sub.Dropped())
	cs := st.cons.client.Status()
	res.check(cs.ContiguityViolations == 0, "consumer saw %d contiguity violations", cs.ContiguityViolations)
	if wl.edge && !res.traced {
		if es, err := edgeStatus(edgeAddr); err == nil {
			res.check(es.ContiguityViolations == 0, "edged saw %d contiguity violations", es.ContiguityViolations)
		} else {
			res.check(false, "edged status: %v", err)
		}
	}
	// Reading age: k-th report of (reader, EPC) → first applied image
	// whose count for that reader reaches k.
	for i, t := range st.taps {
		t.mu.Lock()
		reps := append([]reportRec(nil), t.reports...)
		t.mu.Unlock()
		ages, unmatched, n := st.cons.readingAges(i, reps, int32(W+1), int32(W+M))
		res.ages = append(res.ages, ages...)
		res.unmatched += unmatched
		res.readings += n
	}
	st.cons.mu.Lock()
	res.pubLat = append(res.pubLat, st.cons.pubLat...)
	st.cons.mu.Unlock()
	return nil
}

// followLink is the link status of the client that follows fleetd: the
// edged tier on the edge workload (the traced composition reports its
// own), the consumer otherwise.
func (st *stack) followLink() edge.ClientStatus {
	if st.edge {
		s, _ := edgeStatus(edgeAddr)
		return s
	}
	return st.cons.client.Status()
}

func linkDiff(a, b edge.ClientStatus) edge.ClientStatus {
	return edge.ClientStatus{
		Gaps:                 b.Gaps - a.Gaps,
		GapsHealed:           b.GapsHealed - a.GapsHealed,
		GapsReset:            b.GapsReset - a.GapsReset,
		Resets:               b.Resets - a.Resets,
		ContiguityViolations: b.ContiguityViolations,
	}
}

func (st *stack) drain(deadline time.Time) bool {
	for time.Now().Before(deadline) {
		ev, err := busStatus(apiAddr)
		if err == nil {
			ok := true
			tail := ev
			if st.edge {
				var es struct {
					Link   edge.ClientStatus
					Events fleet.EventsStatus
				}
				b, err := httpGet(edgeAddr, "/api/status")
				ok = err == nil && json.Unmarshal(b, &es) == nil &&
					es.Link.Identity == ev.Identity && es.Link.Cursor == ev.LastSeq
				tail = es.Events
			}
			id, cur := st.cons.client.Cursor()
			if ok && id == tail.Identity && cur == tail.LastSeq {
				// The consumer goroutine may still hold applied events in
				// its buffer; wait for it to catch up with the client.
				for len(st.cons.sub.C()) > 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				return true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// sameRegistry compares the consumer's mirror with /api/tags: the EPC
// set and every tag's per-reader read counts.
func sameRegistry(a, b []fleet.TagState) bool {
	if len(a) != len(b) {
		return false
	}
	idx := make(map[string]map[string]uint64, len(a))
	for _, t := range a {
		idx[t.EPC] = t.Readers
	}
	for _, t := range b {
		r, ok := idx[t.EPC]
		if !ok || len(r) != len(t.Readers) {
			return false
		}
		for k, v := range t.Readers {
			if r[k] != v {
				return false
			}
		}
	}
	return true
}

// ---- HTTP helpers ----

var httpClient = &http.Client{Timeout: 10 * time.Second}

func httpGet(addr, path string) ([]byte, error) {
	resp, err := httpClient.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return b, fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return b, nil
}

// waitHTTP polls addr+path until it answers 200 (and ok accepts the
// body, when given).
func waitHTTP(addr, path string, deadline time.Time, ok func([]byte) bool) error {
	for {
		b, err := httpGet(addr, path)
		if err == nil && (ok == nil || ok(b)) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s%s not ready: %v", addr, path, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func busStatus(addr string) (fleet.EventsStatus, error) {
	var s struct{ Events fleet.EventsStatus }
	b, err := httpGet(addr, "/api/status")
	if err == nil {
		err = json.Unmarshal(b, &s)
	}
	return s.Events, err
}

func edgeStatus(addr string) (edge.ClientStatus, error) {
	var s struct{ Link edge.ClientStatus }
	b, err := httpGet(addr, "/api/status")
	if err == nil {
		err = json.Unmarshal(b, &s)
	}
	return s.Link, err
}

func fetchTags(addr string) ([]fleet.TagState, error) {
	var s struct{ Tags []fleet.TagState }
	b, err := httpGet(addr, "/api/tags")
	if err == nil {
		err = json.Unmarshal(b, &s)
	}
	return s.Tags, err
}

// fetchCounters parses the Prometheus text of /metrics into
// name{labels} → value.
func fetchCounters(addr string) (map[string]float64, error) {
	b, err := httpGet(addr, "/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(string(b)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// scrapeLoop is the open-loop /metrics scraper: scrape i is due at
// start + i·every whether or not earlier scrapes have returned, and is
// timed from when it was due.
//
// It issues at most n scrapes: a scrape costs fleetd CPU, so a fixed
// count keeps the window's work fixed too.
func scrapeLoop(stop <-chan struct{}, every time.Duration, n int, record func(ms float64, err error)) {
	start := nowNS()
	var wg sync.WaitGroup
	defer wg.Wait()
	for i := 0; i < n; i++ {
		due := start + int64(i)*int64(every)
		select {
		case <-stop:
			return
		case <-time.After(time.Duration(due - nowNS())):
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := httpGet(apiAddr, "/metrics")
			record(float64(nowNS()-due)/1e6, err)
		}()
	}
}

// ---- child processes ----

type child struct {
	name string
	log  string
	cmd  *exec.Cmd
	pid  string
	done chan struct{}
	err  error
}

func startChild(prog string, args []string, log string) (*child, error) {
	f, err := os.OpenFile(log, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(prog, args...)
	cmd.Stdout, cmd.Stderr = f, f
	// A benchmark killed mid-run must not leave servers holding its ports.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", prog, err)
	}
	c := &child{name: filepath.Base(prog), log: log, cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), done: make(chan struct{})}
	go func() {
		c.err = cmd.Wait()
		f.Close()
		close(c.done)
	}()
	return c, nil
}

// stop asks the child to exit, escalating to SIGKILL, and waits for it.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
		return
	case <-time.After(20 * time.Second):
	}
	c.cmd.Process.Kill()
	<-c.done
}
