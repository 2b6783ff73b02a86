package guard

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestBackoffExponentAndCap(t *testing.T) {
	const ms = time.Millisecond
	cases := []struct {
		name        string
		base, limit time.Duration
		n           int
		want        time.Duration
	}{
		{"n=0 counts as first", 100 * ms, time.Second, 0, 100 * ms},
		{"negative n counts as first", 100 * ms, time.Second, -3, 100 * ms},
		{"first retry pays the base", 100 * ms, time.Second, 1, 100 * ms},
		{"second doubles", 100 * ms, time.Second, 2, 200 * ms},
		{"fourth", 100 * ms, time.Second, 4, 800 * ms},
		{"fifth saturates", 100 * ms, time.Second, 5, time.Second},
		{"exactly the cap is kept", 250 * ms, time.Second, 3, time.Second},
		{"base above the cap", 2 * time.Second, time.Second, 1, time.Second},
		{"shift of 62 caps", 500 * ms, 30 * time.Second, 63, 30 * time.Second},
		{"shift of 63 caps", 500 * ms, 30 * time.Second, 64, 30 * time.Second},
		{"shift past the word caps", 500 * ms, 30 * time.Second, 65, 30 * time.Second},
		{"huge n caps", 500 * ms, 30 * time.Second, math.MaxInt, 30 * time.Second},
		{"one nanosecond, huge n", 1, time.Duration(math.MaxInt64), 70, time.Duration(math.MaxInt64)},
		{"one nanosecond, top bit", 1, time.Duration(math.MaxInt64), 63, 1 << 62},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Backoff(tc.base, tc.limit, tc.n, nil); got != tc.want {
				t.Fatalf("Backoff(%v, %v, %d) = %v, want %v", tc.base, tc.limit, tc.n, got, tc.want)
			}
		})
	}
}

// The old shift form wrapped for some (base, n): the helper must never
// hand out zero or a negative delay, and never exceed the cap.
func TestBackoffNeverWraps(t *testing.T) {
	for _, base := range []time.Duration{1, 3, 100 * time.Millisecond, 500 * time.Millisecond, 7 * time.Second} {
		for n := 1; n <= 200; n++ {
			d := Backoff(base, 30*time.Second, n, nil)
			if d <= 0 || d > 30*time.Second || d < min(base, 30*time.Second) {
				t.Fatalf("Backoff(%v, 30s, %d) = %v", base, n, d)
			}
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const d = time.Second
	lo, hi := time.Duration(math.MaxInt64), time.Duration(0)
	for i := 0; i < 10000; i++ {
		got := Backoff(d, d, 1, rng)
		if got < 800*time.Millisecond || got >= 1200*time.Millisecond {
			t.Fatalf("jittered delay %v outside [0.8s, 1.2s)", got)
		}
		lo, hi = min(lo, got), max(hi, got)
	}
	// The draw spans the range rather than collapsing to a point.
	if lo > 810*time.Millisecond || hi < 1190*time.Millisecond {
		t.Fatalf("jitter spans only [%v, %v]", lo, hi)
	}
}

// refSupervisorDelay is the fleet supervisor's delay formula before the
// shared helper existed.
func refSupervisorDelay(base, limit time.Duration, n int, rng *rand.Rand) time.Duration {
	if n < 1 {
		n = 1
	}
	d := base << uint(n-1)
	if d > limit || d <= 0 {
		d = limit
	}
	jitter := 0.8 + 0.4*rng.Float64()
	return time.Duration(float64(d) * jitter)
}

// refEdgeDelay is the edge client's delay formula before the shared
// helper existed.
func refEdgeDelay(base, limit time.Duration, failures int, rng *rand.Rand) time.Duration {
	d := base
	for i := 1; i < failures && d < limit; i++ {
		d *= 2
	}
	if d > limit {
		d = limit
	}
	jitter := 0.8 + 0.4*rng.Float64()
	return time.Duration(float64(d) * jitter)
}

// A seeded rng must replay the exact schedule the old formulas produced:
// one Float64 per delay, the same arithmetic. The failure counts rise and
// reset the way a reconnect loop's do.
func TestBackoffMatchesOldSchedules(t *testing.T) {
	failures := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 2, 1, 2, 3, 30, 40, 1}
	refs := []struct {
		name string
		ref  func(time.Duration, time.Duration, int, *rand.Rand) time.Duration
	}{{"supervisor", refSupervisorDelay}, {"edge", refEdgeDelay}}
	for _, r := range refs {
		for _, bounds := range [][2]time.Duration{
			{500 * time.Millisecond, 30 * time.Second}, // fleet defaults
			{100 * time.Millisecond, 5 * time.Second},  // edge defaults
			{150 * time.Millisecond, 2 * time.Second},
			{20 * time.Millisecond, 200 * time.Millisecond},
		} {
			for _, seed := range []int64{1, 42, -7} {
				want, got := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for i, n := range failures {
					w := r.ref(bounds[0], bounds[1], n, want)
					g := Backoff(bounds[0], bounds[1], n, got)
					if w != g {
						t.Fatalf("%s %v seed %d step %d (n=%d): helper %v, old formula %v", r.name, bounds, seed, i, n, g, w)
					}
				}
			}
		}
	}
}
