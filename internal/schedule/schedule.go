// Package schedule implements Phase II of Tagwatch: choosing the group of
// Gen2 Select bitmasks that covers all target (mobile or pinned) tags at
// minimum inventory cost (§5).
//
// The problem is the weighted set-cover reduction of §5.2: every candidate
// bitmask S(m, p, l) — a substring of some target's EPC — covers the set
// of tags whose EPC matches m at bit offset p, and costs C(|covered|)
// under the inventory-cost model of §2.2 (each bitmask runs as its own
// AISpec, paying the start-up cost τ₀). The greedy algorithm of §5.3
// repeatedly picks the bitmask with the highest relative gain
// R(S) = |V_S ∧ V| / C(|V_S|).
//
// The index table is precomputed over the current tag population, sorted
// by EPC, as a bit-slice index: for every EPC bit position b, an
// indicator bitmap (64 tags per uint64 word) of the tags whose bit b is 1.
// A candidate's coverage is then an intersection of slices, built
// incrementally: for a fixed pointer p, coverage(p, l) is coverage(p, l−1)
// ANDed with slice p+l−1 (or its complement where the target's bit is 0),
// ⌈n/64⌉ word operations per candidate instead of a scan of n tags.
// Coverage only shrinks as a mask grows, so once a window covers its
// target alone every longer window at that pointer is skipped, and rows
// are deduplicated by a 64-bit hash of their coverage with full equality
// on collision. One greedy run over hundreds of tags then costs a few
// milliseconds (the paper's Fig. 17 budget).
//
// Every skipped candidate is a repeat of a coverage set already in the
// table, so the rows, and their (target, length, pointer) order, are
// exactly those of the full enumeration. Order matters because the greedy
// breaks gain ties by row position (or by Config.Rand over the tied rows
// in that order); keeping it keeps every plan byte-identical to the
// exhaustive search's.
package schedule

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"tagwatch/internal/aloha"
	"tagwatch/internal/epc"
	"tagwatch/internal/gen2"
)

// Bitmask is the paper's S(m, p, l): a mask compared against the EPC code
// at bit offset Pointer. (The Gen2 Select pointer additionally skips the
// StoredCRC+StoredPC header; SelectCmd adds that.)
type Bitmask struct {
	Mask    epc.EPC
	Pointer int
}

// Covers reports whether the bitmask covers the given EPC code.
func (b Bitmask) Covers(code epc.EPC) bool {
	return code.MatchBits(b.Pointer, b.Mask)
}

// SelectCmd converts the bitmask into the Gen2 Select command that
// implements it on the air protocol.
func (b Bitmask) SelectCmd() gen2.SelectCmd {
	return gen2.SelectCmd{
		Target:  gen2.TargetSL,
		Action:  gen2.ActionAssertNothing,
		MemBank: epc.BankEPC,
		Pointer: epc.EPCWordOffset + b.Pointer,
		Mask:    b.Mask,
	}
}

// String renders the paper's S(mask, pointer, length) notation.
func (b Bitmask) String() string {
	return fmt.Sprintf("S(%s, %d, %d)", b.Mask, b.Pointer, b.Mask.Bits())
}

// Config tunes candidate enumeration.
type Config struct {
	// Cost is the inventory-cost model used to price bitmasks.
	Cost aloha.CostModel
	// MaxLen caps candidate mask lengths; 0 means the full EPC length.
	// The full space is n'·L(L+1)/2 candidates (§5.2); trimming lengths
	// trades optimality for preprocessing time on very large populations.
	MaxLen int
	// PointerStride enumerates candidate pointers in steps (1 = every bit
	// offset, the paper's full space).
	PointerStride int
	// Rand resolves gain ties ("a draw can be resolved by random
	// selection", §5.3); nil picks the first maximum deterministically.
	Rand *rand.Rand
}

// DefaultConfig prices with the paper's measured cost model and searches
// the full candidate space.
func DefaultConfig() Config {
	return Config{Cost: aloha.PaperCostModel(), PointerStride: 1}
}

// words packs an EPC code into 64-bit words, MSB first, zero-padded.
type words [2]uint64

func packEPC(code epc.EPC) (words, bool) {
	if code.Bits() > 128 {
		return words{}, false
	}
	var w words
	for i, b := range code.Bytes() {
		w[i/8] |= uint64(b) << (56 - 8*(i%8))
	}
	return w, true
}

// bit returns bit i of the packed code (0 = MSB of the first word).
func (w words) bit(i int) bool { return w[i/64]>>(63-i%64)&1 == 1 }

// bitmap is an indicator over the population, packed 64 tags per word.
type bitmap []uint64

func newBitmap(n int) bitmap { return make(bitmap, (n+63)/64) }

func (b bitmap) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitmap) get(i int) bool { return b[i/64]>>(i%64)&1 == 1 }

func (b bitmap) popcount() int {
	var c int
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// andCount returns |b ∧ o|.
func (b bitmap) andCount(o bitmap) int {
	var c int
	for i := range b {
		c += bits.OnesCount64(b[i] & o[i])
	}
	return c
}

// clear removes o's bits from b.
func (b bitmap) clear(o bitmap) {
	for i := range b {
		b[i] &^= o[i]
	}
}

// hash mixes the words into 64 bits for deduplication; equal bitmaps
// hash equally, and distinct ones are told apart by equal on collision.
func (b bitmap) hash() uint64 {
	h := uint64(len(b))
	for _, w := range b {
		h = bits.RotateLeft64((h^w)*0x9e3779b97f4a7c15, 31)
	}
	return h
}

func (b bitmap) equal(o bitmap) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}

// row is one candidate bitmask S(m, p, l). The mask m is the target's bits
// [pointer, pointer+length); it is cut only for the rows the greedy picks
// (IndexTable.bitmask).
type row struct {
	target  int // table index of the target whose EPC the mask comes from
	pointer int
	length  int
	count   int           // |covered|
	cost    time.Duration // C(count)
}

// rowSet is the candidate table: rows in enumeration order, with row i's
// coverage bitmap stored at arena[i*nw : (i+1)*nw].
type rowSet struct {
	rows  []row
	arena []uint64
	nw    int
}

func (s *rowSet) covered(i int) bitmap {
	return s.arena[i*s.nw : (i+1)*s.nw : (i+1)*s.nw]
}

// IndexTable is the §5.3 pre-built table: the current population plus fast
// coverage evaluation. Build one per population snapshot; it answers any
// number of Select calls (target sets) against that snapshot. The table is
// read-only once built, so Select may run concurrently on one table unless
// Config.Rand is set (a *rand.Rand is not safe for concurrent use).
type IndexTable struct {
	cfg   Config
	tags  []epc.EPC
	index map[epc.EPC]int
	bits  int // common EPC bit length
	// all holds every tag; ones[b] holds the tags whose EPC bit b is 1.
	all  bitmap
	ones []bitmap
}

// NewIndexTable builds the table over the current tag population. All tags
// must share one EPC bit length (mixed populations are not meaningfully
// maskable with a common pointer space).
func NewIndexTable(cfg Config, population []epc.EPC) (*IndexTable, error) {
	if len(population) == 0 {
		return nil, fmt.Errorf("schedule: empty population")
	}
	if cfg.Cost == (aloha.CostModel{}) {
		cfg.Cost = aloha.PaperCostModel()
	}
	if cfg.PointerStride <= 0 {
		cfg.PointerStride = 1
	}
	n := len(population)
	t := &IndexTable{
		cfg:   cfg,
		tags:  append([]epc.EPC(nil), population...),
		index: make(map[epc.EPC]int, n),
		bits:  population[0].Bits(),
		all:   newBitmap(n),
	}
	slices.SortFunc(t.tags, epc.Compare)
	nw := len(t.all)
	planes := make([]uint64, t.bits*nw)
	t.ones = make([]bitmap, t.bits)
	for b := range t.ones {
		t.ones[b] = planes[b*nw : (b+1)*nw : (b+1)*nw]
	}
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
		t.all.set(i)
		for b := 0; b < t.bits; b++ {
			if w.bit(b) {
				t.ones[b].set(i)
			}
		}
	}
	return t, nil
}

// Size returns the population size.
func (t *IndexTable) Size() int { return len(t.tags) }

// Population returns the (sorted) population snapshot.
func (t *IndexTable) Population() []epc.EPC { return t.tags }

// rowEstimate sizes buildRows' row table. A (target, pointer) pair keeps
// about log2(n/targets) rows before its windows repeat other targets' rows
// or reach the singleton. On uniform 96-bit populations that is 9,600 rows
// for 7,528 kept at 400 tags/20 targets and 48,000 for 37,961 at
// 2,000/100 (TestRowEstimate); letting append find the size instead
// allocates about four times the bytes.
func rowEstimate(n, targets, pointers int) int {
	nt := max(1, targets)
	return nt * pointers * bits.Len(uint(n/nt))
}

// buildRows enumerates the candidate bitmasks derived from the targets:
// every substring S(m, p, l) of a target EPC, deduplicated by coverage.
// Rows come out in (target, length, pointer) order, each coverage set at
// its first occurrence — the order the greedy's tie-breaking sees.
//
// A window's coverage is evaluated incrementally from the bit-slice
// index: coverage(p, l) is coverage(p, l−1) intersected with the tags
// that agree with the target at bit p+l−1, one word operation per 64
// tags. A window whose coverage equals that of (p, l−1) repeats a row
// already seen, and once only the target itself is left every longer
// window at p repeats that singleton, so the pointer is retired. Skipping
// only repeats is what keeps the rows, and so every plan, unchanged.
func (t *IndexTable) buildRows(targets []int) *rowSet {
	maxLen := t.cfg.MaxLen
	if maxLen <= 0 || maxLen > t.bits {
		maxLen = t.bits
	}
	stride := t.cfg.PointerStride
	nw := len(t.all)
	np := (t.bits + stride - 1) / stride
	cov := make([]uint64, np*nw) // running coverage per pointer
	open := make([]bool, np)
	est := rowEstimate(len(t.tags), len(targets), np)
	rs := &rowSet{nw: nw, rows: make([]row, 0, est), arena: make([]uint64, 0, est*nw)}
	first := make(map[uint64]int32, est) // coverage hash → 1 + latest row with it
	chain := make([]int32, 0, est)       // per row: 1 + previous row with its hash
	seen := func(c bitmap, h uint64) bool {
		for j := first[h]; j != 0; j = chain[j-1] {
			if c.equal(rs.covered(int(j - 1))) {
				return true
			}
		}
		return false
	}
	for _, ti := range targets {
		for k := range open {
			copy(cov[k*nw:(k+1)*nw], t.all)
			open[k] = true
		}
		live := np
		for l := 1; l <= maxLen && live > 0; l++ {
			for k, p := 0, 0; p+l <= t.bits; k, p = k+1, p+stride {
				if !open[k] {
					continue
				}
				c := bitmap(cov[k*nw : (k+1)*nw])
				plane := t.ones[p+l-1]
				var flip uint64 // complement the plane where the target's bit is 0
				if !plane.get(ti) {
					flip = ^uint64(0)
				}
				var diff uint64
				count := 0
				for i := range c {
					w := c[i] & (plane[i] ^ flip)
					diff |= w ^ c[i]
					c[i] = w
					count += bits.OnesCount64(w)
				}
				if count == 1 || p+l == t.bits {
					open[k] = false
					live--
				}
				if l > 1 && diff == 0 {
					continue
				}
				h := c.hash()
				if seen(c, h) {
					continue
				}
				rs.arena = append(rs.arena, c...)
				chain = append(chain, first[h])
				first[h] = int32(len(rs.rows) + 1)
				rs.rows = append(rs.rows, row{
					target:  ti,
					pointer: p,
					length:  l,
					count:   count,
					cost:    t.cfg.Cost.Cost(count),
				})
			}
		}
	}
	return rs
}

// bitmask cuts a row's mask from its target's EPC.
func (t *IndexTable) bitmask(r row) (Bitmask, error) {
	mask, err := t.tags[r.target].Slice(r.pointer, r.length)
	if err != nil {
		return Bitmask{}, fmt.Errorf("schedule: cut mask: %w", err)
	}
	return Bitmask{Mask: mask, Pointer: r.pointer}, nil
}

// PlanMask is one selected bitmask with its coverage accounting.
type PlanMask struct {
	Bitmask Bitmask
	// Covered is how many tags (targets and collateral) the mask's
	// selective round will read.
	Covered int
	// TargetGain is how many then-uncovered targets the mask contributed.
	TargetGain int
	// Cost is C(Covered).
	Cost time.Duration
}

// Plan is the outcome of bitmask selection.
type Plan struct {
	Masks []PlanMask
	// TotalCost is Σ C(|S_i|) over the chosen masks.
	TotalCost time.Duration
	// NaiveCost is the §5.2 worst case: one exact-EPC round per target.
	NaiveCost time.Duration
	// UsedNaive reports that the greedy result was more expensive than the
	// worst case and the naive plan was adopted instead.
	UsedNaive bool
	// Collateral is the number of distinct non-target tags covered.
	Collateral int
}

// Bitmasks returns just the masks, in selection order.
func (p Plan) Bitmasks() []Bitmask {
	out := make([]Bitmask, len(p.Masks))
	for i, m := range p.Masks {
		out[i] = m.Bitmask
	}
	return out
}

// ErrUnknownTarget is wrapped when a target is not in the population.
var ErrUnknownTarget = fmt.Errorf("schedule: target not in population")

// Select runs the greedy set-cover search of §5.3 for the given targets
// and returns the chosen plan. Targets must be members of the population.
func (t *IndexTable) Select(targets []epc.EPC) (Plan, error) {
	if len(targets) == 0 {
		return Plan{}, fmt.Errorf("schedule: no targets")
	}
	idxs := make([]int, 0, len(targets))
	seen := make(map[int]struct{}, len(targets))
	for _, code := range targets {
		i, ok := t.index[code]
		if !ok {
			return Plan{}, fmt.Errorf("%w: %s", ErrUnknownTarget, code)
		}
		if _, dup := seen[i]; dup {
			continue
		}
		seen[i] = struct{}{}
		idxs = append(idxs, i)
	}

	rs := t.buildRows(idxs)
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
		for ri := range rs.rows {
			gain := rs.covered(ri).andCount(v)
			if gain == 0 {
				continue
			}
			r := float64(gain) / float64(rs.rows[ri].cost)
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
		r, covered := rs.rows[pick], rs.covered(pick)
		bm, err := t.bitmask(r)
		if err != nil {
			return Plan{}, err
		}
		plan.Masks = append(plan.Masks, PlanMask{
			Bitmask:    bm,
			Covered:    r.count,
			TargetGain: covered.andCount(v),
			Cost:       r.cost,
		})
		plan.TotalCost += r.cost
		for i := range coveredAll {
			coveredAll[i] |= covered[i]
		}
		v.clear(covered)
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

// NaivePlan builds the baseline plan that uses each target's full EPC as
// its own bitmask — the "naive rate-adaptive solution" compared throughout
// §7.
func (t *IndexTable) NaivePlan(targets []epc.EPC) Plan {
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
