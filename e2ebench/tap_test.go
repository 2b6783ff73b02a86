package main

import (
	"context"
	"net"
	"testing"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/llrp"
	"tagwatch/internal/reader"
)

// TestTapParsesCoreCycles drives a real Tagwatch over LLRP through the
// tap and checks that the wire-level cycle parse agrees with what
// RunCycle reports, cycle by cycle, and that the gate holds the cycle
// past the limit.
func TestTapParsesCoreCycles(t *testing.T) {
	const movers, cycles = 3, 6
	dwell := time.Second
	scn, codes, err := buildScene(3, 0, 57, movers)
	if err != nil {
		t.Fatal(err)
	}
	tap := newReaderTap("r0", codes, movers, dwell)
	tap.limit.Store(cycles)
	srv := llrp.NewServer(reader.New(reader.DefaultConfig(), scn), llrp.ServerConfig{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Serve(tapListener{Listener: lis, tap: tap})
	defer srv.Close()
	defer tap.close()

	conn, err := llrp.Dial(context.Background(), addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cfg := core.DefaultConfig()
	cfg.PhaseIIDwell = dwell
	tw := core.New(cfg, core.NewLLRPDevice(conn))
	var reps []core.CycleReport
	for i := 0; i < cycles; i++ {
		rep := tw.RunCycle()
		if rep.Err != nil {
			t.Fatalf("cycle %d: %v", i+1, rep.Err)
		}
		reps = append(reps, rep)
	}
	// The next cycle's START must be held at the gate.
	done := make(chan struct{})
	go func() {
		defer close(done)
		tw.RunCycle()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for tap.heldAt() != cycles+1 {
		if time.Now().After(deadline) {
			t.Fatalf("START of cycle %d was not held (held=%d)", cycles+1, tap.heldAt())
		}
		time.Sleep(time.Millisecond)
	}

	tap.mu.Lock()
	got := append([]cycleRec(nil), tap.cycles...)
	tap.mu.Unlock()
	if len(got) != cycles {
		t.Fatalf("tap parsed %d cycles, want %d", len(got), cycles)
	}
	for i, rep := range reps {
		if want := len(rep.PhaseIReads) + len(rep.PhaseIIReads); got[i].reads != want {
			t.Errorf("cycle %d: tap counted %d reads, core %d", i+1, got[i].reads, want)
		}
		if got[i].selective == rep.FellBack {
			t.Errorf("cycle %d: tap selective=%v, core fell back=%v", i+1, got[i].selective, rep.FellBack)
		}
		if got[i].endVT <= got[i].startVT {
			t.Errorf("cycle %d: virtual window %d..%d", i+1, got[i].startVT, got[i].endVT)
		}
	}
	tap.close()
	conn.Close()
	<-done
}
