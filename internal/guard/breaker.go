package guard

import (
	"math/rand"
	"sync"
	"time"
)

// Backoff is the reconnect-delay schedule shared by every retry loop in
// the repo (fleet supervisors, the edge client, the replication shipper
// and Breaker): the delay before the n-th consecutive retry (n < 1
// counts as 1) is base doubled n−1 times, saturating at limit — never
// wrapping to zero or negative, however large n grows. With a non-nil
// rng the delay is scaled by a jitter factor uniform in [0.8, 1.2),
// drawn with exactly one rng.Float64 call, so clients that lost the same
// link do not redial in lockstep and a seeded rng replays its schedule.
func Backoff(base, limit time.Duration, n int, rng *rand.Rand) time.Duration {
	n = max(n, 1)
	d := limit
	if shift := uint(n - 1); shift < 63 && base <= limit>>shift {
		d = base << shift
	}
	if rng == nil {
		return d
	}
	return time.Duration(float64(d) * (0.8 + 0.4*rng.Float64()))
}

// BreakerConfig tunes a restart budget.
type BreakerConfig struct {
	// Budget is how many restarts the window allows before the breaker
	// trips to dead (default 5). A tripped breaker never un-trips: a
	// component that panics this often needs a human, not a retry loop.
	Budget int
	// Window is the sliding interval the budget applies to (default 1m).
	Window time.Duration
	// BackoffBase and BackoffMax bound the delay handed out before each
	// restart: the delay doubles with every restart still inside the
	// window, saturating at the max (defaults 100ms and 10s).
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Budget <= 0 {
		c.Budget = 5
	}
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = 10 * time.Second
	}
	return c
}

// Breaker meters restarts of one crashing component: each failure costs
// one unit of a per-window budget and buys an exponentially growing
// backoff delay; spending the whole budget inside one window trips the
// breaker permanently. It is the fleet's answer to a supervisor that
// panics in a tight loop — restarted while plausibly transient, severed
// before it can take the manager down with it.
type Breaker struct {
	cfg BreakerConfig

	mu      sync.Mutex
	recent  []time.Time // failure instants still inside the window
	tripped bool
	trips   uint64 // 0 or 1; kept as a counter for the metrics shape
}

// NewBreaker builds a breaker from cfg (zero fields take defaults).
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Next records a failure at time at. It returns the backoff delay to
// wait before restarting, or ok=false when this failure exhausted the
// window's budget and the breaker has tripped to dead.
func (b *Breaker) Next(at time.Time) (delay time.Duration, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.tripped {
		return 0, false
	}
	cutoff := at.Add(-b.cfg.Window)
	kept := b.recent[:0]
	for _, t := range b.recent {
		if t.After(cutoff) {
			kept = append(kept, t)
		}
	}
	b.recent = append(kept, at)
	if len(b.recent) > b.cfg.Budget {
		b.tripped = true
		b.trips++
		return 0, false
	}
	// Exponential in the number of in-window failures: sparse panics pay
	// the base, a burst climbs toward the cap.
	return Backoff(b.cfg.BackoffBase, b.cfg.BackoffMax, len(b.recent), nil), true
}

// Tripped reports whether the budget has been exhausted.
func (b *Breaker) Tripped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tripped
}

// Restarts reports how many failures are currently inside the window
// and whether the breaker is dead — the metrics snapshot.
func (b *Breaker) Restarts() (inWindow int, tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.recent), b.tripped
}
