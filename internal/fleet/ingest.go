package fleet

import (
	"sync/atomic"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/epc"
)

// Ingest is a synthetic reader: a handle that feeds readings into the
// fleet exactly as a supervised LLRP session would — through the merged
// registry (so the guard layer, quarantine, and handoff detection all
// apply) and out over the event bus — without any connection underneath.
// It is the fleet's one merge path: every supervised LLRP reader feeds
// the fleet through its own unregistered Ingest, and replay (cmd/replayd
// drives a generated scenario timeline through one Ingest per gate) and
// tests that need fleet-level behaviour without a live reader register
// theirs with NewIngest.
//
// A registered Ingest appears in Manager.Readers with state "up"; it
// never contributes to unhealthiness (a fleet of only ingests is
// trivially healthy, like a fleet with no readers).
type Ingest struct {
	name string
	m    *Manager

	readings atomic.Uint64
	cycles   atomic.Int64
	created  time.Time
}

// NewIngest registers a synthetic reader with the given name. The name
// shares the namespace of supervised readers: a tag observed by an
// ingest named "exit" after one named "entry" records a handoff
// entry→exit, exactly as two live readers would.
func (m *Manager) NewIngest(name string) *Ingest {
	in := m.newIngest(name)
	m.mu.Lock()
	m.ingests = append(m.ingests, in)
	m.mu.Unlock()
	return in
}

// newIngest builds an Ingest without registering it — a supervisor's,
// which Manager.Readers reports through the supervisor's own status.
func (m *Manager) newIngest(name string) *Ingest {
	return &Ingest{name: name, m: m, created: time.Now()}
}

// Observe merges one reading at the given timestamp, publishing a
// handoff event when the tag changed readers. The timestamp is the
// caller's: replay passes virtual time so registry state (and therefore
// quarantine and eviction decisions) is deterministic across runs.
func (in *Ingest) Observe(r core.Reading, at time.Time) (Handoff, bool) {
	in.readings.Add(1)
	ho, moved := in.m.reg.Observe(in.name, r, at)
	if moved {
		in.m.bus.Publish(Event{
			Type: EventHandoff, Reader: in.name, At: ho.At,
			EPC: ho.EPC, From: ho.From, To: ho.To,
		})
	}
	return ho, moved
}

// UpdateAssessment records this ingest's per-cycle verdict for a tag,
// under the registry's usual ownership rule (only the reader that saw
// the tag last may overwrite).
func (in *Ingest) UpdateAssessment(code epc.EPC, mobile bool, irr float64) {
	in.m.reg.UpdateAssessment(in.name, code, mobile, irr)
}

// PublishCycle emits a cycle summary on the bus under this ingest's
// name, bumping its cycle count.
func (in *Ingest) PublishCycle(at time.Time, sum *CycleSummary) {
	in.cycles.Add(1)
	in.m.bus.Publish(Event{Type: EventCycle, Reader: in.name, At: at, Cycle: sum})
}

// publishState emits a reader connection-state change under this
// ingest's name.
func (in *Ingest) publishState(at time.Time, state ReaderState, attempt int, err error) {
	ev := Event{Type: EventReaderState, Reader: in.name, At: at, State: state.String(), Attempt: attempt}
	if err != nil {
		ev.Error = err.Error()
	}
	in.m.bus.Publish(ev)
}

// Readings reports how many readings this ingest has merged.
func (in *Ingest) Readings() uint64 { return in.readings.Load() }

// status shapes the ingest as a ReaderStatus for Manager.Readers.
func (in *Ingest) status() ReaderStatus {
	return ReaderStatus{
		Name:        in.name,
		Addr:        "ingest",
		State:       StateUp.String(),
		ConnectedAt: in.created,
		Cycles:      int(in.cycles.Load()),
		Readings:    in.readings.Load(),
	}
}
