// Package edge is the read-optimized fan-out tier in front of a fleet
// primary: one hardened SSE client subscribes upstream, maintains a
// local mirror of the merged tag registry, and re-serves /api/tags and
// /api/events to thousands of downstream clients with the same
// cursor/gap/reset semantics the primary speaks — so the fan-out
// multiplies read capacity without multiplying load on the supervisors,
// and without ever introducing a silent discontinuity of its own.
//
// The edge's correctness contract is bounded, explicit loss: every
// event it applies is contiguous with its cursor; a gap frame from
// upstream severs the session and heals through a ring replay (or an
// explicit reset) on reconnect; an upstream failover to a new primary
// identity is detected by the cursor's identity half and answered with
// a clean reset instead of cursor confusion against the new sequence
// space. When upstream is down the edge keeps serving its mirror —
// staleness is measured and exposed, /healthz reports degraded-not-dead
// — because an honest stale answer beats an outage.
package edge

import (
	"context"
	"net"
	"sort"
	"time"

	"tagwatch/internal/fleet"
)

// Config tunes the edge tier (client + downstream server).
type Config struct {
	// Upstream is the primary's HTTP address (host:port).
	Upstream string
	// Dial overrides the upstream transport dial — the hook chaos tests
	// wrap with a fault injector. Nil uses a plain TCP dialer bounded by
	// DialTimeout.
	Dial func(ctx context.Context, addr string) (net.Conn, error)

	// DialTimeout bounds each connect attempt (default 5s).
	DialTimeout time.Duration
	// ReadTimeout bounds each frame read from upstream; it must exceed
	// the upstream's SSE heartbeat interval or healthy idle streams get
	// severed (default 45s against the fleet's 15s heartbeat).
	ReadTimeout time.Duration
	// WriteTimeout bounds the upstream request write (default 5s).
	WriteTimeout time.Duration
	// BackoffBase and BackoffMax bound the reconnect delay (guard.Backoff):
	// exponential from the base, capped at the max, with ±20% jitter; a
	// session that got as far as streaming starts the count again
	// (defaults 100ms, 5s — the edge reconnects fast; upstream sheds it
	// if needed).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the backoff jitter RNG (0 derives one from the
	// upstream address so two edges never share a schedule).
	Seed int64

	// StaleAfter is how old the last upstream frame may be before the
	// edge reports itself degraded (default 30s).
	StaleAfter time.Duration

	// Downstream serving knobs, mirroring fleet.Config semantics.
	EventBuffer     int           // per-subscriber buffer (default 256)
	EventRingCap    int           // downstream replay ring (default 4096)
	MaxSSEClients   int           // downstream subscriber cap (default 1024)
	SSEWriteTimeout time.Duration // per-frame write bound (default 10s)
	SSEHeartbeat    time.Duration // keepalive spacing (default 15s)

	// Logf, when set, receives connection lifecycle lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 45 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = 5 * time.Second
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 30 * time.Second
	}
	if c.EventBuffer <= 0 {
		c.EventBuffer = 256
	}
	if c.EventRingCap <= 0 {
		c.EventRingCap = fleet.DefaultRingCap
	}
	if c.MaxSSEClients <= 0 {
		c.MaxSSEClients = 1024
	}
	if c.SSEWriteTimeout <= 0 {
		c.SSEWriteTimeout = 10 * time.Second
	}
	if c.SSEHeartbeat <= 0 {
		c.SSEHeartbeat = 15 * time.Second
	}
	return c
}

// mirror is the edge's local copy of the merged tag registry, built
// purely from the upstream event stream (reset anchors + contiguous tag
// images/drops).
type mirror struct {
	tags map[string]fleet.TagState
}

func newMirror() *mirror {
	return &mirror{tags: make(map[string]fleet.TagState)}
}

// snapshot returns the mirror sorted by EPC — the same shape (and
// therefore the same fingerprint) as fleet.Registry.Snapshot.
func (m *mirror) snapshot() []fleet.TagState {
	out := make([]fleet.TagState, 0, len(m.tags))
	for _, st := range m.tags {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].EPC < out[j].EPC })
	return out
}
