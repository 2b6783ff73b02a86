package main

import (
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/llrp"
)

// The wire tap sits between each llrp.Server emulator and its socket. It
// sees every frame the emulator reads and writes, which gives the
// benchmark four things without touching the program under test:
//
//   - pacing: the emulator free-runs its simulator, and the tap holds each
//     RO_ACCESS_REPORT and ROSpecEnded until wall time catches up with the
//     frame's virtual timestamp × scale, anchored at the ROSpec's start;
//   - cycle boundaries: it replays core.LLRPDevice's Phase II loop on the
//     report timestamps, so it knows which ROSpec opens each cycle;
//   - a gate: the START_ROSPEC that would open a cycle past the allowed
//     limit is held until the limit is raised, which is how warm-up ends
//     on a barrier and the measured run stops after a fixed cycle count;
//   - timings: idle gaps (ROSpecEnded written → next START_ROSPEC read),
//     control round trips, and the write time of every reading.

// cycleRec is one middleware cycle as seen on the wire.
type cycleRec struct {
	idle       int64 // Σ gaps before each of the cycle's START_ROSPECs, ns
	specs      int
	reads      int
	moverReads int
	bytes      int // RO_ACCESS_REPORT frame bytes
	selective  bool
	startVT    uint64 // µs, virtual, first ROSpecStarted
	endVT      uint64 // µs, virtual, last ROSpecEnded
}

// specEnd is when an ROSpecEnded was written, and in which cycle.
type specEnd struct {
	cycle int32
	at    int64
}

// reportRec is one reading written by the emulator: the k-th report of
// this EPC on this reader (1-based), written at t.
type reportRec struct {
	epc   int32
	k     int32
	t     int64
	cycle int32
}

type cyclePhase int

const (
	phaseI       cyclePhase = iota // next START opens a cycle
	phaseIIFirst                   // next START is the cycle's Phase II
	phaseIIMore                    // inside the read-all fallback loop
)

// readerTap holds one emulated reader's wire-level state.
type readerTap struct {
	name   string
	pop    map[epc.EPC]int32
	mover  []bool
	dwell  uint64 // Phase II dwell, µs
	closed chan struct{}

	scale atomic.Uint64 // math.Float64bits of wall s per virtual s (0 = free-run)
	// limit is the highest cycle allowed to start; wake is closed and
	// replaced whenever it rises.
	limit atomic.Int64

	mu       sync.Mutex
	wake     chan struct{}
	held     int // cycle whose START is being held (0 = none)
	rbuf     []byte
	filtered map[uint32]bool
	lastReq  llrp.MessageType
	lastReqT int64
	rtts     []int64

	phase      cyclePhase
	latest     uint64 // newest report timestamp, µs (the device clock)
	p2Deadline uint64
	specReads  int
	cycles     []cycleRec
	curFilter  bool // the running ROSpec has Select filters (a selective Phase II)
	lastEnded  int64
	anchorWall int64
	anchorVT   uint64
	lateness   []int64
	counts     []int32
	reports    []reportRec
	ended      []specEnd
	closeOnce  sync.Once
}

func newReaderTap(name string, codes []epc.EPC, movers int, dwell time.Duration) *readerTap {
	t := &readerTap{
		name:     name,
		pop:      make(map[epc.EPC]int32, len(codes)),
		mover:    make([]bool, len(codes)),
		dwell:    uint64(dwell / time.Microsecond),
		closed:   make(chan struct{}),
		wake:     make(chan struct{}),
		filtered: make(map[uint32]bool),
		counts:   make([]int32, len(codes)),
	}
	for i, c := range codes {
		t.pop[c] = int32(i)
		t.mover[i] = i < movers
	}
	return t
}

func (t *readerTap) setScale(s float64) { t.scale.Store(math.Float64bits(s)) }

// setLimit lets cycles up to n start and wakes a held START.
func (t *readerTap) setLimit(n int) {
	t.mu.Lock()
	t.limit.Store(int64(n))
	close(t.wake)
	t.wake = make(chan struct{})
	t.mu.Unlock()
}

// heldAt reports the cycle whose START is being held (0 = none).
func (t *readerTap) heldAt() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.held
}

func (t *readerTap) close() { t.closeOnce.Do(func() { close(t.closed) }) }

// tapListener wraps every accepted connection in a tapConn.
type tapListener struct {
	net.Listener
	tap *readerTap
}

func (l tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: l.tap}, nil
}

type tapConn struct {
	net.Conn
	tap *readerTap
}

var errTapClosed = errors.New("e2ebench: tap closed")

// Read parses the client's frames as they arrive. A START_ROSPEC that
// would open a cycle past the limit blocks here until it is released.
func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		if herr := c.tap.onRead(p[:n], nowNS()); herr != nil {
			return 0, herr
		}
	}
	return n, err
}

func (t *readerTap) onRead(b []byte, at int64) error {
	t.mu.Lock()
	t.rbuf = append(t.rbuf, b...)
	for {
		m, used, err := llrp.DecodeFrame(t.rbuf)
		if err != nil {
			break
		}
		t.rbuf = t.rbuf[used:]
		switch m.Type {
		case llrp.MsgAddROSpec:
			if spec, err := llrp.DecodeAddROSpec(m); err == nil {
				t.filtered[spec.ID] = hasFilters(spec)
			}
		case llrp.MsgStartROSpec:
			id, _ := llrp.ROSpecIDOf(m)
			if t.phase == phaseI {
				next := len(t.cycles) + 1
				for int64(next) > t.limit.Load() {
					t.held = next
					wake := t.wake
					t.mu.Unlock()
					select {
					case <-wake:
					case <-t.closed:
						t.mu.Lock()
						t.held = 0
						t.mu.Unlock()
						return errTapClosed
					}
					t.mu.Lock()
				}
				t.held = 0
				t.cycles = append(t.cycles, cycleRec{})
			}
			t.curFilter = t.filtered[id]
			delete(t.filtered, id)
			if n := len(t.cycles); n > 0 {
				cy := &t.cycles[n-1]
				cy.specs++
				if t.lastEnded > 0 {
					cy.idle += at - t.lastEnded
				}
			}
		}
		if isControl(m.Type) {
			// Back-to-back control requests are one client round trip
			// each: the client sends the next only after the response.
			if (t.lastReq == llrp.MsgAddROSpec && m.Type == llrp.MsgEnableROSpec) ||
				(t.lastReq == llrp.MsgEnableROSpec && m.Type == llrp.MsgStartROSpec) {
				t.rtts = append(t.rtts, at-t.lastReqT)
			}
			t.lastReq, t.lastReqT = m.Type, at
		}
	}
	t.mu.Unlock()
	return nil
}

func isControl(mt llrp.MessageType) bool {
	switch mt {
	case llrp.MsgAddROSpec, llrp.MsgEnableROSpec, llrp.MsgStartROSpec,
		llrp.MsgStopROSpec, llrp.MsgDeleteROSpec, llrp.MsgDisableROSpec:
		return true
	}
	return false
}

func hasFilters(spec llrp.ROSpec) bool {
	for _, ai := range spec.AISpecs {
		for _, inv := range ai.Inventories {
			for _, cmd := range inv.Commands {
				if len(cmd.Filters) > 0 {
					return true
				}
			}
		}
	}
	return false
}

// Write paces and records the emulator's frames. The emulator writes one
// whole frame per call.
func (c *tapConn) Write(p []byte) (int, error) {
	m, _, err := llrp.DecodeFrame(p)
	if err != nil {
		return c.Conn.Write(p)
	}
	t := c.tap
	var (
		vt      uint64
		paced   bool
		reports []llrp.TagReportData
		ev      llrp.ReaderEvent
	)
	switch m.Type {
	case llrp.MsgROAccessReport:
		reports, err = llrp.DecodeROAccessReport(m)
		if err != nil {
			return c.Conn.Write(p)
		}
		for _, r := range reports {
			vt = max(vt, r.FirstSeenUTC)
		}
		paced = len(reports) > 0
	case llrp.MsgReaderEventNotification:
		ev, err = llrp.DecodeReaderEventNotification(m)
		if err != nil || ev.ROSpec == nil {
			return c.Conn.Write(p)
		}
		vt = ev.Timestamp.Microseconds
		if ev.ROSpec.Type == llrp.ROSpecStarted {
			t.mu.Lock()
			t.anchorWall, t.anchorVT = nowNS(), vt
			if n := len(t.cycles); n > 0 && t.cycles[n-1].startVT == 0 {
				t.cycles[n-1].startVT = vt
			}
			t.mu.Unlock()
			return c.Conn.Write(p)
		}
		paced = true
	default:
		return c.Conn.Write(p)
	}

	if paced {
		if scale := math.Float64frombits(t.scale.Load()); scale > 0 {
			t.mu.Lock()
			target := t.anchorWall + int64(float64(vt-min(vt, t.anchorVT))*1e3*scale)
			t.mu.Unlock()
			if d := target - nowNS(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			late := nowNS() - target
			t.mu.Lock()
			t.lateness = append(t.lateness, late)
			t.mu.Unlock()
		}
	}
	at := nowNS()
	n, werr := c.Conn.Write(p)

	t.mu.Lock()
	defer t.mu.Unlock()
	cy := (*cycleRec)(nil)
	if k := len(t.cycles); k > 0 {
		cy = &t.cycles[k-1]
	}
	if m.Type == llrp.MsgROAccessReport {
		for _, r := range reports {
			t.latest = max(t.latest, r.FirstSeenUTC)
			i, ok := t.pop[r.EPC]
			if !ok {
				continue
			}
			t.counts[i]++
			t.reports = append(t.reports, reportRec{epc: i, k: t.counts[i], t: at, cycle: int32(len(t.cycles))})
			if cy != nil {
				cy.reads++
				if t.mover[i] {
					cy.moverReads++
				}
			}
		}
		t.specReads += len(reports)
		if cy != nil {
			cy.bytes += len(p)
		}
		return n, werr
	}
	// ROSpecEnded: advance the cycle parser exactly as
	// core.LLRPDevice + Tagwatch.RunCycle would see it.
	t.lastEnded = at
	t.ended = append(t.ended, specEnd{cycle: int32(len(t.cycles)), at: at})
	if cy != nil {
		cy.endVT = vt
	}
	empty := t.specReads == 0
	t.specReads = 0
	switch t.phase {
	case phaseI:
		t.p2Deadline = t.latest + t.dwell
		t.phase = phaseIIFirst
	case phaseIIFirst:
		if t.curFilter {
			if cy != nil {
				cy.selective = true
			}
			t.phase = phaseI
		} else if empty || t.latest >= t.p2Deadline {
			t.phase = phaseI
		} else {
			t.phase = phaseIIMore
		}
	case phaseIIMore:
		if empty || t.latest >= t.p2Deadline {
			t.phase = phaseI
		}
	}
	return n, werr
}
