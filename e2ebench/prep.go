package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"tagwatch/internal/core"
	"tagwatch/internal/epc"
	"tagwatch/internal/fleet"
	"tagwatch/internal/reader"
	"tagwatch/internal/rf"
	"tagwatch/internal/scene"
)

// readerSeed derives each emulated reader's simulation seed from the
// run's seed, so readers differ from each other but not between runs.
func readerSeed(seed int64, idx int) int64 { return seed*7919 + int64(idx) + 1 }

// buildScene lays out cmd/readersim's scene: one antenna, movers on a
// turntable, stationary tags on a 10-wide grid. The first `movers`
// codes are the movers.
//
// A workload is one site: its tag population (the EPCs, fixed by the
// reader's index) and layout do not depend on the seed. The seed draws
// the RF channel's noise and the movers' starting angles. Drawing the
// EPCs from the seed too made every run a different site: over five
// random populations the median cycle idle ranged from 200 to 325 ms,
// because the planner's work depends on the EPC bit patterns.
func buildScene(seed int64, idx, stationary, movers int) (*scene.Scene, []epc.EPC, error) {
	codes, err := epc.RandomPopulation(rand.New(rand.NewSource(int64(idx)+1)), stationary+movers, 96)
	if err != nil {
		return nil, nil, fmt.Errorf("population: %w", err)
	}
	rng := rand.New(rand.NewSource(readerSeed(seed, idx)))
	scn := scene.New(rf.NewChannel(rf.DefaultParams(), rng), rng)
	scn.AddAntenna(rf.Pt(0, 0, 2))
	phase := rng.Float64() * 2 * math.Pi
	for i, c := range codes[:movers] {
		scn.AddTag(c, scene.Circle{Center: rf.Pt(1.5, 1.5, 0), Radius: 0.2, Speed: 0.7, StartAngle: phase + float64(i)})
	}
	for i, c := range codes[movers:] {
		scn.AddTag(c, scene.Stationary{P: rf.Pt(0.4+float64(i%10)*0.3, 0.4+float64(i/10)*0.3, 0)})
	}
	return scn, codes, nil
}

// referenceSeconds is the virtual read-all window the reference rate is
// taken over.
const referenceSeconds = 30

// moverReferenceRate is the movers' reads per virtual second under plain
// read-all of reader idx's scene — the denominator of Fig. 18's IRR
// gain. It runs the simulator directly through core.SimDevice, outside
// set-up and timing, and is cached per workload and seed.
func moverReferenceRate(work string, wl workload, seed int64) ([]float64, error) {
	path := filepath.Join(work, "cache", fmt.Sprintf("ref-%s-%d.json", wl.name, seed))
	var rates []float64
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &rates) == nil && len(rates) == wl.readers {
		return rates, nil
	}
	rates = make([]float64, wl.readers)
	for i := range rates {
		scn, codes, err := buildScene(seed, i, wl.tags-wl.movers(), wl.movers())
		if err != nil {
			return nil, err
		}
		mover := make(map[epc.EPC]bool, wl.movers())
		for _, c := range codes[:wl.movers()] {
			mover[c] = true
		}
		dev := core.NewSimDevice(reader.New(reader.DefaultConfig(), scn))
		n := 0
		for _, r := range dev.ReadAllFor(referenceSeconds * time.Second) {
			if mover[r.EPC] {
				n++
			}
		}
		rates[i] = float64(n) / referenceSeconds
	}
	if err := writeJSONFile(path, rates); err != nil {
		return nil, err
	}
	return rates, nil
}

// archiveReader names the synthetic reader the prepared durable state
// was recorded under; no live reader shares it.
const archiveReader = "archive"

// prepareState builds the durable registry the durable-scrape workload
// restores: n tags with random EPCs, written through fleet.New +
// NewIngest and a clean Stop, exactly as a fleetd would leave its
// -state-dir. Like the live population it belongs to the site, not to
// the seed: it is built once per checkout and copied fresh for every
// run.
func prepareState(work string, n int) (string, error) {
	dir := filepath.Join(work, "cache", fmt.Sprintf("state-%d", n))
	done := filepath.Join(dir, ".complete")
	if _, err := os.Stat(done); err == nil {
		return dir, nil
	}
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	cfg := fleet.DefaultConfig()
	cfg.StateDir = dir
	m := fleet.New(cfg)
	if err := m.Start(context.Background()); err != nil {
		return "", fmt.Errorf("prepare state: %w", err)
	}
	in := m.NewIngest(archiveReader)
	rng := rand.New(rand.NewSource(int64(n)))
	codes, err := epc.RandomPopulation(rng, n, 96)
	if err != nil {
		return "", err
	}
	base := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	for i, c := range codes {
		in.Observe(core.Reading{EPC: c, Time: time.Duration(i) * time.Millisecond, Antenna: 1, RSSdBm: -60}, base.Add(time.Duration(i)*time.Millisecond))
	}
	if err := m.Stop(); err != nil {
		return "", fmt.Errorf("prepare state: final save: %w", err)
	}
	if err := os.WriteFile(done, nil, 0o644); err != nil {
		return "", err
	}
	return dir, nil
}

// copyDir copies a flat directory of regular files.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || e.Name() == ".complete" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
