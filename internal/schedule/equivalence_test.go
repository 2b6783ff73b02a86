package schedule

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"tagwatch/internal/aloha"
	"tagwatch/internal/epc"
)

// The reference planner below is the candidate enumeration and greedy as
// they stood before the bit-slice index: every (target, length, pointer)
// window rescans the whole population, and rows are deduplicated by a
// string key of their coverage. It is kept verbatim, apart from ref*
// renames and the target lookup factored out of Select for the row
// comparison to share, so the equivalence tests can require the
// production planner to emit the same rows in the same order and the
// same plans.

type refTable struct {
	cfg    Config
	tags   []epc.EPC
	index  map[epc.EPC]int
	packed []words
	bits   int // common EPC bit length
}

type refRow struct {
	mask    Bitmask
	covered bitmap
	count   int // |covered|, cached
}

// windowMask returns words with ones at bit positions [p, p+l).
func windowMask(p, l int) words {
	var m words
	for i := p; i < p+l; i++ {
		m[i/64] |= 1 << (63 - i%64)
	}
	return m
}

func refKey(b bitmap) string {
	buf := make([]byte, 8*len(b))
	for i, w := range b {
		for j := 0; j < 8; j++ {
			buf[8*i+j] = byte(w >> (8 * j))
		}
	}
	return string(buf)
}

func refNewIndexTable(cfg Config, population []epc.EPC) (*refTable, error) {
	if len(population) == 0 {
		return nil, fmt.Errorf("schedule: empty population")
	}
	if cfg.Cost == (aloha.CostModel{}) {
		cfg.Cost = aloha.PaperCostModel()
	}
	if cfg.PointerStride <= 0 {
		cfg.PointerStride = 1
	}
	t := &refTable{
		cfg:    cfg,
		tags:   append([]epc.EPC(nil), population...),
		index:  make(map[epc.EPC]int, len(population)),
		packed: make([]words, len(population)),
		bits:   population[0].Bits(),
	}
	sort.Slice(t.tags, func(i, j int) bool { return t.tags[i].String() < t.tags[j].String() })
	for i, code := range t.tags {
		if code.Bits() != t.bits {
			return nil, fmt.Errorf("schedule: mixed EPC lengths %d and %d", t.bits, code.Bits())
		}
		if _, dup := t.index[code]; dup {
			return nil, fmt.Errorf("schedule: duplicate EPC %s", code)
		}
		w, ok := packEPC(code)
		if !ok {
			return nil, fmt.Errorf("schedule: EPC %s exceeds 128 bits", code)
		}
		t.index[code] = i
		t.packed[i] = w
	}
	return t, nil
}

func (t *refTable) buildRows(targets []int) []refRow {
	maxLen := t.cfg.MaxLen
	if maxLen <= 0 || maxLen > t.bits {
		maxLen = t.bits
	}
	seen := make(map[string]struct{})
	var rows []refRow
	for _, ti := range targets {
		tw := t.packed[ti]
		for l := 1; l <= maxLen; l++ {
			for p := 0; p+l <= t.bits; p += t.cfg.PointerStride {
				wm := windowMask(p, l)
				cov := newBitmap(len(t.tags))
				count := 0
				for i, pw := range t.packed {
					if (pw[0]^tw[0])&wm[0] == 0 && (pw[1]^tw[1])&wm[1] == 0 {
						cov.set(i)
						count++
					}
				}
				k := refKey(cov)
				if _, dup := seen[k]; dup {
					continue
				}
				seen[k] = struct{}{}
				mask, err := t.tags[ti].Slice(p, l)
				if err != nil {
					continue
				}
				rows = append(rows, refRow{
					mask:    Bitmask{Mask: mask, Pointer: p},
					covered: cov,
					count:   count,
				})
			}
		}
	}
	return rows
}

func (t *refTable) targetIndexes(targets []epc.EPC) ([]int, error) {
	if len(targets) == 0 {
		return nil, fmt.Errorf("schedule: no targets")
	}
	idxs := make([]int, 0, len(targets))
	seen := make(map[int]struct{}, len(targets))
	for _, code := range targets {
		i, ok := t.index[code]
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrUnknownTarget, code)
		}
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		idxs = append(idxs, i)
	}
	return idxs, nil
}

func (t *refTable) Select(targets []epc.EPC) (Plan, error) {
	idxs, err := t.targetIndexes(targets)
	if err != nil {
		return Plan{}, err
	}

	rows := t.buildRows(idxs)
	targetSet := newBitmap(len(t.tags))
	for _, i := range idxs {
		targetSet.set(i)
	}

	// Greedy iterations over the input indicator V.
	v := append(bitmap(nil), targetSet...)
	var plan Plan
	coveredAll := newBitmap(len(t.tags))
	for v.popcount() > 0 {
		bestR := -1.0
		var best []int
		for ri := range rows {
			gain := rows[ri].covered.andCount(v)
			if gain == 0 {
				continue
			}
			r := float64(gain) / float64(t.cfg.Cost.Cost(rows[ri].count))
			switch {
			case r > bestR:
				bestR = r
				best = best[:0]
				best = append(best, ri)
			case r == bestR:
				best = append(best, ri)
			}
		}
		if len(best) == 0 {
			return Plan{}, fmt.Errorf("schedule: uncoverable targets remain (internal invariant violated)")
		}
		pick := best[0]
		if t.cfg.Rand != nil && len(best) > 1 {
			pick = best[t.cfg.Rand.Intn(len(best))]
		}
		r := rows[pick]
		plan.Masks = append(plan.Masks, PlanMask{
			Bitmask:    r.mask,
			Covered:    r.count,
			TargetGain: r.covered.andCount(v),
			Cost:       t.cfg.Cost.Cost(r.count),
		})
		plan.TotalCost += t.cfg.Cost.Cost(r.count)
		for i := range coveredAll {
			coveredAll[i] |= r.covered[i]
		}
		v.clear(r.covered)
	}
	plan.Collateral = coveredAll.popcount() - func() int {
		var c int
		for i := range coveredAll {
			c += bits.OnesCount64(coveredAll[i] & targetSet[i])
		}
		return c
	}()

	// Worst-case fallback (§5.2): n' exact-EPC rounds.
	plan.NaiveCost = time.Duration(len(idxs)) * t.cfg.Cost.Cost(1)
	if plan.TotalCost > plan.NaiveCost {
		naive := t.NaivePlan(targets)
		naive.NaiveCost = plan.NaiveCost
		naive.UsedNaive = true
		return naive, nil
	}
	return plan, nil
}

func (t *refTable) NaivePlan(targets []epc.EPC) Plan {
	var plan Plan
	seen := make(map[epc.EPC]struct{}, len(targets))
	for _, code := range targets {
		if _, dup := seen[code]; dup {
			continue
		}
		seen[code] = struct{}{}
		cost := t.cfg.Cost.Cost(1)
		plan.Masks = append(plan.Masks, PlanMask{
			Bitmask:    Bitmask{Mask: code, Pointer: 0},
			Covered:    1,
			TargetGain: 1,
			Cost:       cost,
		})
		plan.TotalCost += cost
	}
	plan.NaiveCost = plan.TotalCost
	return plan
}

// equivalent builds the production table and the reference over one
// population and requires the same table order, the same candidate rows
// and the same plans: once with first-maximum tie-breaking and once with
// Config.Rand seeded identically on both sides, so random tie-breaks must
// consume the same draws.
func equivalent(t *testing.T, cfg Config, pop, targets []epc.EPC, randSeed int64) {
	t.Helper()
	got, err := NewIndexTable(cfg, pop)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refNewIndexTable(cfg, pop)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.tags, want.tags) || !reflect.DeepEqual(got.index, want.index) {
		t.Fatal("table order differs from the reference's hex order")
	}

	idxs, err := want.targetIndexes(targets)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := want.buildRows(idxs)
	gotRows := got.buildRows(idxs)
	if len(gotRows.rows) != len(wantRows) {
		t.Fatalf("%d rows, reference has %d", len(gotRows.rows), len(wantRows))
	}
	for i, r := range gotRows.rows {
		bm, err := got.bitmask(r)
		if err != nil {
			t.Fatal(err)
		}
		g := refRow{mask: bm, covered: gotRows.covered(i), count: r.count}
		if !reflect.DeepEqual(g, wantRows[i]) {
			t.Fatalf("row %d = %v (covers %d), reference %v (covers %d)",
				i, g.mask, g.count, wantRows[i].mask, wantRows[i].count)
		}
		if r.cost != got.cfg.Cost.Cost(r.count) {
			t.Fatalf("row %d caches cost %v, want C(%d) = %v", i, r.cost, r.count, got.cfg.Cost.Cost(r.count))
		}
	}

	for _, seed := range []int64{0, randSeed} {
		got.cfg.Rand, want.cfg.Rand = nil, nil
		if seed != 0 {
			got.cfg.Rand = rand.New(rand.NewSource(seed))
			want.cfg.Rand = rand.New(rand.NewSource(seed))
		}
		gotPlan, gotErr := got.Select(targets)
		wantPlan, wantErr := want.Select(targets)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(gotPlan, wantPlan) {
			t.Fatalf("rand seed %d: Select = %+v, %v\nreference %+v, %v", seed, gotPlan, gotErr, wantPlan, wantErr)
		}
	}
}

func TestSelectMatchesReference(t *testing.T) {
	type shape struct {
		stride, maxLen int
	}
	shapes := []shape{{1, 0}, {1, 40}, {3, 0}, {3, 40}}
	cases := []struct {
		tags    int
		percent []int
		shapes  []shape
	}{
		{40, []int{1, 5, 10}, shapes},
		{400, []int{1, 5, 10}, shapes},
		// The reference rescans all 2,000 tags for every window, so the
		// largest population runs a subset of the shapes.
		{2000, []int{1}, []shape{{1, 0}, {3, 40}}},
	}
	for _, c := range cases {
		for _, pct := range c.percent {
			for _, sh := range c.shapes {
				name := fmt.Sprintf("tags=%d/targets=%d%%/stride=%d/maxlen=%d", c.tags, pct, sh.stride, sh.maxLen)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					seed := int64(c.tags*100 + pct*10 + sh.stride + sh.maxLen)
					pop, err := epc.RandomPopulation(rand.New(rand.NewSource(seed)), c.tags, 96)
					if err != nil {
						t.Fatal(err)
					}
					k := max(1, c.tags*pct/100)
					cfg := DefaultConfig()
					cfg.PointerStride, cfg.MaxLen = sh.stride, sh.maxLen
					equivalent(t, cfg, pop, pop[:k], seed)
				})
			}
		}
	}
}

// Clustered serials share long prefixes, so many windows repeat one
// coverage set across targets: the dedupe, not the singleton cut-off,
// does most of the work.
func TestSelectMatchesReferenceClustered(t *testing.T) {
	var pop []epc.EPC
	for prod := uint64(0); prod < 4; prod++ {
		p, err := epc.SGTINPopulation(703710, 100000+prod, 5, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		pop = append(pop, p...)
	}
	rng := rand.New(rand.NewSource(9))
	targets := make([]epc.EPC, 20)
	for i := range targets {
		targets[i] = pop[rng.Intn(len(pop))]
	}
	equivalent(t, DefaultConfig(), pop, targets, 3)
}

func FuzzSelectEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(1), uint8(0), uint8(11))
	f.Add(int64(2), uint8(200), uint8(10), uint8(3), uint8(40), uint8(11))
	f.Add(int64(3), uint8(70), uint8(7), uint8(2), uint8(9), uint8(3))
	f.Add(int64(4), uint8(255), uint8(1), uint8(5), uint8(0), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, n, k, stride, maxLen, byteLen uint8) {
		bitLen := 8 * (1 + int(byteLen)%16) // 8..128 bits
		size := 1 + int(n)
		if bitLen == 8 {
			size = min(size, 256)
		}
		rng := rand.New(rand.NewSource(seed))
		pop, err := epc.RandomPopulation(rng, size, bitLen)
		if err != nil {
			t.Skip(err)
		}
		targets := make([]epc.EPC, 1+int(k)%size)
		for i := range targets {
			targets[i] = pop[rng.Intn(size)]
		}
		cfg := DefaultConfig()
		cfg.PointerStride = 1 + int(stride)%8
		cfg.MaxLen = int(maxLen) % (bitLen + 8)
		equivalent(t, cfg, pop, targets, seed|1)
	})
}
