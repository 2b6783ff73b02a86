package fleet

import (
	"errors"
	"slices"
	"testing"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/schedule"
)

func ingestReading(t *testing.T, i int) core.Reading {
	t.Helper()
	pop, err := epc.SequentialPopulation([]byte{0x30, 0x1C, 0xA1}, uint32(i), 1, epc.StandardBits)
	if err != nil {
		t.Fatal(err)
	}
	return core.Reading{EPC: pop[0], Antenna: 1}
}

func TestIngestFeedsRegistryAndBus(t *testing.T) {
	m := New(Config{})
	sub := m.Bus().Subscribe(16)
	defer sub.Close()

	entry := m.NewIngest("entry")
	exit := m.NewIngest("exit")
	at := time.Unix(0, 0).UTC()
	r := ingestReading(t, 0)

	if _, moved := entry.Observe(r, at); moved {
		t.Fatal("first sighting cannot be a handoff")
	}
	ho, moved := exit.Observe(r, at.Add(time.Second))
	if !moved || ho.From != "entry" || ho.To != "exit" {
		t.Fatalf("expected entry->exit handoff, got %+v moved=%v", ho, moved)
	}
	// Every Observe also publishes a tag image (the edge tier's delta
	// stream); skim those to reach the handoff event.
	nextNonTag := func() (Event, bool) {
		for {
			select {
			case ev := <-sub.C():
				if ev.Type == EventTag || ev.Type == EventTagDrop {
					continue
				}
				return ev, true
			default:
				return Event{}, false
			}
		}
	}
	if ev, ok := nextNonTag(); !ok {
		t.Fatal("handoff not published on the bus")
	} else if ev.Type != EventHandoff || ev.From != "entry" || ev.To != "exit" {
		t.Fatalf("bus event = %+v", ev)
	}

	exit.UpdateAssessment(r.EPC, true, 12.5)
	st, ok := m.Registry().Get(r.EPC)
	if !ok || !st.Mobile || st.IRR != 12.5 {
		t.Fatalf("assessment not recorded: %+v ok=%v", st, ok)
	}
	// A stale reader's verdict must not clobber the owner's.
	entry.UpdateAssessment(r.EPC, false, 1)
	if st, _ := m.Registry().Get(r.EPC); !st.Mobile {
		t.Fatal("non-owner overwrote the assessment")
	}

	exit.PublishCycle(at.Add(2*time.Second), &CycleSummary{Present: 1})
	if ev, ok := nextNonTag(); !ok {
		t.Fatal("cycle summary not published")
	} else if ev.Type != EventCycle || ev.Reader != "exit" || ev.Cycle.Present != 1 {
		t.Fatalf("cycle event = %+v", ev)
	}
}

func TestIngestAppearsInReadersAndStaysHealthy(t *testing.T) {
	m := New(Config{})
	in := m.NewIngest("replay-gate")
	in.Observe(ingestReading(t, 1), time.Unix(0, 0).UTC())

	rs := m.Readers()
	if len(rs) != 1 {
		t.Fatalf("readers = %+v", rs)
	}
	st := rs[0]
	if st.Name != "replay-gate" || st.State != "up" || st.Readings != 1 {
		t.Fatalf("ingest status = %+v", st)
	}
	if !m.Healthy() {
		t.Fatal("a fleet of only ingests must be healthy")
	}
}

// TestIngestCycleMergesVerdictsAndSummary drives the per-cycle hand-off
// every supervised reader uses with a hand-made report: each present
// tag gets its own verdict and IRR, a mobile tag absent from Present is
// skipped (without desynchronising the walk), and the summary carries
// every report count plus the transport error.
func TestIngestCycleMergesVerdictsAndSummary(t *testing.T) {
	m := New(Config{})
	sub := m.Bus().Subscribe(64)
	defer sub.Close()
	in := m.newIngest("a1")

	pop, err := epc.SequentialPopulation([]byte{0x30, 0x1C, 0xA1}, 0, 6, epc.StandardBits)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(pop, epc.Compare)
	at := time.Unix(100, 0).UTC()
	for _, code := range pop[1:] {
		in.Observe(core.Reading{EPC: code, Antenna: 1}, at)
	}
	irr := map[epc.EPC]float64{pop[1]: 1.5, pop[2]: 2.5, pop[3]: 3.5, pop[4]: 4.5, pop[5]: 5.5}
	rep := core.CycleReport{
		PhaseIReads:  make([]core.Reading, 7),
		PhaseIIReads: make([]core.Reading, 3),
		Present:      []epc.EPC{pop[1], pop[2], pop[4], pop[5]},
		// pop[0] and pop[3] are mobile but not present this cycle.
		Mobile:       []epc.EPC{pop[0], pop[2], pop[3], pop[5]},
		Targets:      []epc.EPC{pop[2], pop[5]},
		Plan:         schedule.Plan{Masks: make([]schedule.PlanMask, 2)},
		FellBack:     true,
		ScheduleCost: 1234567 * time.Nanosecond,
		Err:          errors.New("llrp: link lost"),
	}
	ingestCycle(in, rep, func(code epc.EPC) float64 { return irr[code] }, at.Add(time.Second))

	for _, want := range []struct {
		code   epc.EPC
		mobile bool
		irr    float64
	}{
		{pop[1], false, 1.5},
		{pop[2], true, 2.5},
		{pop[3], false, 0}, // not present: no verdict recorded
		{pop[4], false, 4.5},
		{pop[5], true, 5.5},
	} {
		st, ok := m.Registry().Get(want.code)
		if !ok || st.Mobile != want.mobile || st.IRR != want.irr {
			t.Errorf("%s: mobile=%v irr=%v (ok=%v), want mobile=%v irr=%v",
				want.code, st.Mobile, st.IRR, ok, want.mobile, want.irr)
		}
	}
	if _, ok := m.Registry().Get(pop[0]); ok {
		t.Error("a mobile tag never observed entered the registry")
	}

	var cycle *Event
	for cycle == nil {
		select {
		case ev := <-sub.C():
			if ev.Type == EventCycle {
				cycle = &ev
			}
		default:
			t.Fatal("no cycle summary published")
		}
	}
	want := CycleSummary{
		Present:       4,
		Mobile:        4,
		Targets:       2,
		Masks:         2,
		FellBack:      true,
		PhaseIReads:   7,
		PhaseIIReads:  3,
		ScheduleCostU: 1234,
		Err:           "llrp: link lost",
	}
	if cycle.Reader != "a1" || !cycle.At.Equal(at.Add(time.Second)) || *cycle.Cycle != want {
		t.Fatalf("cycle event %s at %v: %+v, want a1 at %v: %+v",
			cycle.Reader, cycle.At, *cycle.Cycle, at.Add(time.Second), want)
	}
	if n := in.cycles.Load(); n != 1 {
		t.Fatalf("ingest counted %d cycles, want 1", n)
	}
	if rs := m.Readers(); len(rs) != 0 {
		t.Fatalf("a supervisor's ingest must not be registered: %+v", rs)
	}
}
