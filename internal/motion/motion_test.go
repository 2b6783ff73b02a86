package motion

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"tagwatch/internal/epc"
	"tagwatch/internal/rf"
)

var tagA = epc.MustParse("30f4ab12cd0045e100000001")
var tagB = epc.MustParse("30f4ab12cd0045e100000002")

// feedStationary trains a detector with n noisy readings around mu.
func feedStationary(d Assessor, tag epc.EPC, rng *rand.Rand, mu, sigma float64, n int) {
	for i := 0; i < n; i++ {
		d.Observe(tag, 0, 0, rf.WrapPhase(mu+rng.NormFloat64()*sigma), time.Duration(i)*10*time.Millisecond)
	}
}

func TestFirstContactIsMoving(t *testing.T) {
	d := NewPhaseMoG(Config{})
	res := d.Observe(tagA, 0, 0, 1.0, 0)
	if !res.Moving || !math.IsInf(res.Score, 1) {
		t.Fatalf("first contact must be 'moving' with infinite score: %+v", res)
	}
}

func TestStationaryTagLowFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewPhaseMoG(Config{})
	feedStationary(d, tagA, rng, 2.0, 0.1, 200)
	var fp int
	const trials = 500
	for i := 0; i < trials; i++ {
		res := d.Observe(tagA, 0, 0, rf.WrapPhase(2.0+rng.NormFloat64()*0.1), time.Duration(i)*time.Millisecond)
		if res.Moving {
			fp++
		}
	}
	if rate := float64(fp) / trials; rate > 0.05 {
		t.Fatalf("stationary FPR = %.3f, want < 0.05", rate)
	}
}

func TestDisplacementDetected(t *testing.T) {
	// A 1 cm move shifts the phase by ≈0.39 rad at 920 MHz — far beyond
	// 3σ of a σ=0.1 mode.
	rng := rand.New(rand.NewSource(2))
	d := NewPhaseMoG(Config{})
	feedStationary(d, tagA, rng, 1.0, 0.08, 200)
	res := d.Observe(tagA, 0, 0, rf.WrapPhase(1.0+0.39), 0)
	if !res.Moving {
		t.Fatalf("0.39 rad jump undetected: %+v", res)
	}
	if res.Score < 3 {
		t.Fatalf("score %v should exceed ξ", res.Score)
	}
}

func TestPhaseWrapAroundNotFlagged(t *testing.T) {
	// §4.3 "phase jumps": a mode near 0 must accept readings near 2π.
	rng := rand.New(rand.NewSource(3))
	d := NewPhaseMoG(Config{})
	for i := 0; i < 300; i++ {
		d.Observe(tagA, 0, 0, rf.WrapPhase(rng.NormFloat64()*0.08), time.Duration(i)*time.Millisecond)
	}
	res := d.Observe(tagA, 0, 0, 2*math.Pi-0.02, 0)
	if res.Moving {
		t.Fatalf("wrap-around reading flagged as motion: %+v", res)
	}
}

func TestMeanStraddlesWrapPoint(t *testing.T) {
	// Readings alternating ±0.1 around 0 (i.e. 0.1 and 2π−0.1) must learn
	// a single mode near 0, not a mean near π.
	rng := rand.New(rand.NewSource(4))
	d := NewPhaseMoG(Config{})
	for i := 0; i < 400; i++ {
		x := 0.1
		if i%2 == 1 {
			x = 2*math.Pi - 0.1
		}
		d.Observe(tagA, 0, 0, rf.WrapPhase(x+rng.NormFloat64()*0.02), time.Duration(i)*time.Millisecond)
	}
	_, mu, _ := d.Stack(tagA, 0, 0).Modes()
	if len(mu) == 0 {
		t.Fatal("no modes learned")
	}
	if rf.PhaseDist(mu[0], 0) > 0.3 {
		t.Fatalf("top mode mean %v should hug the wrap point", mu[0])
	}
}

func TestMultipathModesAbsorbed(t *testing.T) {
	// A stationary tag whose environment alternates between two multipath
	// states (Fig. 7): after learning, neither state should flag motion —
	// the GMM's raison d'être.
	rng := rand.New(rand.NewSource(5))
	d := NewPhaseMoG(Config{})
	modes := []float64{1.0, 2.2}
	for i := 0; i < 600; i++ {
		m := modes[rng.Intn(2)]
		d.Observe(tagA, 0, 0, rf.WrapPhase(m+rng.NormFloat64()*0.08), time.Duration(i)*time.Millisecond)
	}
	var fp int
	const trials = 400
	for i := 0; i < trials; i++ {
		m := modes[rng.Intn(2)]
		if d.Observe(tagA, 0, 0, rf.WrapPhase(m+rng.NormFloat64()*0.08), 0).Moving {
			fp++
		}
	}
	if rate := float64(fp) / trials; rate > 0.05 {
		t.Fatalf("two-mode FPR = %.3f, want < 0.05", rate)
	}
	// And the stack actually holds ≥ 2 meaningful modes.
	w, mu, _ := d.Stack(tagA, 0, 0).Modes()
	var strong int
	for i := range w {
		if w[i] > 0.1 {
			strong++
		}
		_ = mu
	}
	if strong < 2 {
		t.Fatalf("want ≥2 strong modes, got %d (weights %v)", strong, w)
	}
}

func TestDifferencingFlagsModeAlternation(t *testing.T) {
	// The same two-mode environment destroys the differencing baseline:
	// every alternation looks like motion (the paper's false positives).
	rng := rand.New(rand.NewSource(6))
	d := NewPhaseDiff()
	modes := []float64{1.0, 2.2}
	var fp, n int
	last := 0
	for i := 0; i < 400; i++ {
		m := rng.Intn(2)
		res := d.Observe(tagA, 0, 0, rf.WrapPhase(modes[m]+rng.NormFloat64()*0.05), 0)
		if i > 0 {
			n++
			if res.Moving {
				fp++
			}
		}
		last = m
		_ = last
	}
	if rate := float64(fp) / float64(n); rate < 0.3 {
		t.Fatalf("differencing FPR = %.3f — expected it to suffer in a two-mode environment", rate)
	}
}

func TestGMMBeatsDifferencingOnFPR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gmm := NewPhaseMoG(Config{})
	diff := NewPhaseDiff()
	modes := []float64{0.8, 2.0, 3.1}
	fpOf := func(a Assessor) float64 {
		var fp, n int
		for i := 0; i < 900; i++ {
			x := rf.WrapPhase(modes[rng.Intn(3)] + rng.NormFloat64()*0.06)
			res := a.Observe(tagA, 0, 0, x, time.Duration(i)*time.Millisecond)
			if i > 500 { // score only after learning
				n++
				if res.Moving {
					fp++
				}
			}
		}
		return float64(fp) / float64(n)
	}
	g := fpOf(gmm)
	rng = rand.New(rand.NewSource(7)) // same stream for fairness
	f := fpOf(diff)
	if g >= f {
		t.Fatalf("GMM FPR %.3f must beat differencing FPR %.3f", g, f)
	}
}

func TestStackEvictionKeepsK(t *testing.T) {
	cfg := Config{K: 3}
	s := NewStack(cfg, CircularDist)
	// Five phases ≥1.3 rad apart (beyond the ξ·InitStd ≈ 1.05 rad match
	// window): each pushes a fresh mode; only K survive.
	vals := []float64{0, 1.3, 2.6, 3.9, 5.2}
	for i := 0; i < 10; i++ {
		s.Observe(vals[i%len(vals)])
	}
	w, _, _ := s.Modes()
	if len(w) != 3 {
		t.Fatalf("stack holds %d modes, want K=3", len(w))
	}
}

func TestStateTransitionRelearns(t *testing.T) {
	// Tag moves to a new position and parks: first readings flag motion,
	// then the new immobility mode takes over (§4.3 "Why do we model
	// immobility?").
	rng := rand.New(rand.NewSource(8))
	d := NewPhaseMoG(Config{})
	feedStationary(d, tagA, rng, 1.0, 0.08, 300)
	// Park at a new phase.
	moved := 0
	for i := 0; i < 300; i++ {
		res := d.Observe(tagA, 0, 0, rf.WrapPhase(4.0+rng.NormFloat64()*0.08), time.Duration(i)*time.Millisecond)
		if res.Moving {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("the transition itself must be flagged")
	}
	// After settling, the new position is stationary.
	var fp int
	for i := 0; i < 200; i++ {
		if d.Observe(tagA, 0, 0, rf.WrapPhase(4.0+rng.NormFloat64()*0.08), 0).Moving {
			fp++
		}
	}
	if rate := float64(fp) / 200; rate > 0.05 {
		t.Fatalf("post-transition FPR = %.3f", rate)
	}
}

func TestPerChannelStacksIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := NewPhaseMoG(Config{})
	// Channel 0 sits at 1.0, channel 7 at 4.0 — per-channel offsets.
	for i := 0; i < 200; i++ {
		d.Observe(tagA, 0, 0, rf.WrapPhase(1.0+rng.NormFloat64()*0.05), 0)
		d.Observe(tagA, 0, 7, rf.WrapPhase(4.0+rng.NormFloat64()*0.05), 0)
	}
	if d.Observe(tagA, 0, 0, 1.0, 0).Moving || d.Observe(tagA, 0, 7, 4.0, 0).Moving {
		t.Fatal("per-channel readings must match their own stacks")
	}
	// Cross-channel phase must NOT pollute: a 4.0 on channel 0 is motion.
	if !d.Observe(tagA, 0, 0, 4.0, 0).Moving {
		t.Fatal("cross-channel value must flag on the wrong channel")
	}
	if d.Stack(tagA, 0, 0) == nil || d.Stack(tagA, 0, 7) == nil {
		t.Fatal("stacks must exist per channel")
	}
}

func TestSharedStackWhenPerChannelOff(t *testing.T) {
	d := NewDetector(Config{IgnoreChannel: true, K: 2}, CircularDist)
	d.Observe(tagA, 0, 3, 1.0, 0)
	if d.Stack(tagA, 0, 9) == nil {
		t.Fatal("channel must collapse to one stack")
	}
}

func TestForgetAndPrune(t *testing.T) {
	d := NewPhaseMoG(Config{})
	d.Observe(tagA, 0, 0, 1.0, 10*time.Second)
	d.Observe(tagB, 0, 0, 2.0, 20*time.Second)
	if d.TrackedTags() != 2 {
		t.Fatalf("tracked = %d", d.TrackedTags())
	}
	d.Forget(tagA)
	if d.TrackedTags() != 1 || d.Stack(tagA, 0, 0) != nil {
		t.Fatal("Forget must drop all of a tag's state")
	}
	if n := d.Prune(15 * time.Second); n != 0 {
		t.Fatalf("nothing is older than 15 s: pruned %d", n)
	}
	if n := d.Prune(25 * time.Second); n != 1 || d.TrackedTags() != 0 {
		t.Fatalf("prune must drop tagB: %d dropped, %d tracked", n, d.TrackedTags())
	}
}

func TestRSSInsensitiveToSmallDisplacement(t *testing.T) {
	// The Fig. 13 asymmetry, reproduced through the actual channel: a 2 cm
	// move swings the phase by ≈0.8 rad but barely moves RSS.
	rng := rand.New(rand.NewSource(10))
	p := rf.DefaultParams()
	ch := rf.NewChannel(p, rng)
	ant := rf.Pt(0, 0, 2)

	phase := NewPhaseMoG(Config{})
	rss := NewRSSMoG(Config{})
	pos := rf.Pt(2, 1, 0)
	for i := 0; i < 300; i++ {
		m := ch.Measure(rng, ant, pos, 0.5, 0, nil)
		phase.Observe(tagA, 0, 0, m.PhaseRad, time.Duration(i)*10*time.Millisecond)
		rss.Observe(tagA, 0, 0, m.RSSdBm, time.Duration(i)*10*time.Millisecond)
	}
	// One-shot displacement trials (the Fig. 13 protocol: move once, score
	// whether that movement event is detected). Repeated readings at the
	// new spot would legitimately become the new immobility, so each trial
	// scores only the first post-move reading via its ROC score.
	moved := rf.Pt(2.02, 1, 0) // 2 cm
	var phaseHits, rssHits int
	const trials = 50
	const xi = 3.0
	for i := 0; i < trials; i++ {
		m := ch.Measure(rng, ant, moved, 0.5, 0, nil)
		if phase.Peek(tagA, 0, 0, m.PhaseRad) > xi {
			phaseHits++
		}
		if rss.Peek(tagA, 0, 0, m.RSSdBm) > xi {
			rssHits++
		}
	}
	if phaseHits <= rssHits {
		t.Fatalf("phase hits (%d) must exceed RSS hits (%d) for a 2 cm move", phaseHits, rssHits)
	}
	if float64(phaseHits)/trials < 0.5 {
		t.Fatalf("phase detector caught only %d/%d 2 cm moves", phaseHits, trials)
	}
}

func TestScoreMonotonicWithDisplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewPhaseMoG(Config{})
	feedStationary(d, tagA, rng, 3.0, 0.08, 300)
	small := d.Observe(tagA, 0, 0, 3.05, 0).Score
	large := d.Observe(tagA, 0, 0, 3.9, 0).Score
	if large <= small {
		t.Fatalf("score must grow with deviation: %.2f vs %.2f", small, large)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	// Paper parameters K=8, ξ=3, α=0.001, w₀=1e-4; InitStd deviates from
	// the paper's 2π deliberately (see the Config doc comment).
	if c.K != 8 || c.Xi != 3.0 || c.Alpha != 0.001 || c.InitStd != 0.35 || c.InitWeight != 1e-4 {
		t.Fatalf("paper defaults wrong: %+v", c)
	}
	// Partial overrides survive.
	c2 := Config{K: 2, Xi: 2.5}.withDefaults()
	if c2.K != 2 || c2.Xi != 2.5 || c2.Alpha != 0.001 {
		t.Fatalf("override handling: %+v", c2)
	}
}

func TestWeightsBoundedAndOrdered(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := NewStack(Config{}, CircularDist)
	for i := 0; i < 500; i++ {
		// Three modes at 0, 2, 4 rad — pairwise beyond the ξ·InitStd ≈
		// 1.05 rad match window so they stay distinct.
		s.Observe(rf.WrapPhase(float64(2*(i%3)) + rng.NormFloat64()*0.05))
	}
	w, _, _ := s.Modes()
	// Raw weights stay in (0, 1]; the sustained modes out-earn the floor.
	var established int
	for _, x := range w {
		if x <= 0 || x > 1 {
			t.Fatalf("weight %v out of (0,1]", x)
		}
		if x >= 0.01 {
			established++
		}
	}
	if established < 3 {
		t.Fatalf("three sustained modes must cross the weight floor; got %d (weights %v)", established, w)
	}
	// Priority ordering is descending.
	ws, _, sig := s.Modes()
	for i := 1; i < len(ws); i++ {
		if ws[i]/sig[i] > ws[i-1]/sig[i-1]+1e-12 {
			t.Fatal("modes must be ordered by priority")
		}
	}
}

func TestDifferencingFirstContact(t *testing.T) {
	d := NewRSSDiff()
	res := d.Observe(tagA, 0, 0, -60, 0)
	if !res.Moving || !math.IsInf(res.Score, 1) {
		t.Fatalf("first contact: %+v", res)
	}
	res = d.Observe(tagA, 0, 0, -60.2, 0)
	if res.Moving {
		t.Fatalf("0.2 dB wiggle flagged: %+v", res)
	}
	res = d.Observe(tagA, 0, 0, -40, 0)
	if !res.Moving {
		t.Fatalf("20 dB jump missed: %+v", res)
	}
}

func TestLearningCurveQuickStart(t *testing.T) {
	// Fig. 14: ~70% detection accuracy with ≈67 readings, ~90% with ≈130.
	// "Accuracy" here: fraction of stationary test readings matching a
	// learned mode. Train on k readings, test on the next 30.
	rng := rand.New(rand.NewSource(13))
	accuracyAfter := func(k int) float64 {
		d := NewPhaseMoG(Config{})
		// Two-mode dynamic environment like the experiment's walker.
		sample := func() float64 {
			base := 1.2
			if rng.Intn(3) == 0 {
				base = 2.1
			}
			return rf.WrapPhase(base + rng.NormFloat64()*0.08)
		}
		for i := 0; i < k; i++ {
			d.Observe(tagA, 0, 0, sample(), 0)
		}
		var ok int
		const tests = 30
		for i := 0; i < tests; i++ {
			if !d.Observe(tagA, 0, 0, sample(), 0).Moving {
				ok++
			}
		}
		return float64(ok) / tests
	}
	a67 := accuracyAfter(67)
	a130 := accuracyAfter(130)
	if a67 < 0.6 {
		t.Fatalf("accuracy after 67 readings = %.2f, want ≥ 0.6", a67)
	}
	if a130 < 0.8 {
		t.Fatalf("accuracy after 130 readings = %.2f, want ≥ 0.8", a130)
	}
}

func TestMaxTagsEvictsStalest(t *testing.T) {
	d := NewPhaseMoG(Config{MaxTags: 4})
	pop, err := epc.RandomPopulation(rand.New(rand.NewSource(11)), 12, 96)
	if err != nil {
		t.Fatal(err)
	}
	for i, tag := range pop {
		d.Observe(tag, 0, 0, 1.0, time.Duration(i)*time.Second)
	}
	if n := d.TrackedTags(); n != 4 {
		t.Fatalf("tracked %d tags, cap is 4", n)
	}
	if ev := d.EvictedTags(); ev != 8 {
		t.Fatalf("evicted %d tags, want 8", ev)
	}
	// The survivors must be the most recently seen, i.e. the last four.
	for _, tag := range pop[:8] {
		if d.Stack(tag, 0, 0) != nil {
			t.Fatalf("stale tag %s survived the cap", tag)
		}
	}
	for _, tag := range pop[8:] {
		if d.Stack(tag, 0, 0) == nil {
			t.Fatalf("fresh tag %s was evicted", tag)
		}
	}
	// Eviction must tombstone, so checkpoints shrink too.
	_, forgotten := d.DrainChanges()
	if len(forgotten) != 8 {
		t.Fatalf("%d tombstones drained, want 8", len(forgotten))
	}
}

func TestMaxTagsReobservationIsNotEviction(t *testing.T) {
	// Re-observing an already-tracked tag at the cap must not evict
	// anyone — only first contact with a genuinely new tag does.
	d := NewPhaseMoG(Config{MaxTags: 2})
	d.Observe(tagA, 0, 0, 1.0, 0)
	d.Observe(tagB, 0, 0, 1.0, time.Second)
	d.Observe(tagA, 0, 0, 1.1, 2*time.Second)
	if ev := d.EvictedTags(); ev != 0 {
		t.Fatalf("re-observation evicted %d tags", ev)
	}
	if d.TrackedTags() != 2 {
		t.Fatal("both tags must remain tracked")
	}
}
