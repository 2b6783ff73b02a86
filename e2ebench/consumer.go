package main

import (
	"context"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tagwatch/internal/edge"
	"tagwatch/internal/fleet"
)

// countAt is one tag image the consumer applied: the reader's lifetime
// read count for the tag, and when the consumer saw it.
type countAt struct {
	t     int64
	count uint64
}

// consumer follows a fleetd (or edged) event stream the way a correct
// client does: through edge.Client, which heals shed events by
// Last-Event-ID replay or an explicit reset, reading its downstream bus
// with a buffer deep enough that the consumer itself never sheds.
type consumer struct {
	client  *edge.Client
	sub     *fleet.Subscriber
	readers []string
	// where maps an EPC string to (reader index, population index).
	where map[string][2]int32

	cancel context.CancelFunc
	done   sync.WaitGroup
	links  links

	mu     sync.Mutex
	seen   [][][]countAt // [reader][epc] images in arrival order
	pubLat []int64       // consumer receipt − publish time, tag events in the window
	window atomic.Bool

	bytesIn atomic.Int64 // SSE bytes read from upstream
}

// consumerBuffer is the downstream-bus buffer the consumer reads with:
// larger than the biggest burst a workload publishes at once (a reset
// over the 100k-tag durable registry), so loss can only happen upstream,
// where the edge client heals it.
const consumerBuffer = 1 << 17

func startConsumer(upstream string, readers []string, where map[string][2]int32, popSizes []int) *consumer {
	c := &consumer{readers: readers, where: where, seen: make([][][]countAt, len(readers))}
	for i, n := range popSizes {
		c.seen[i] = make([][]countAt, n)
	}
	c.client = edge.NewClient(edge.Config{
		Upstream:    upstream,
		Seed:        1,
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  time.Second,
		Dial:        c.links.dial(&c.bytesIn),
	})
	c.sub = c.client.Bus().Subscribe(consumerBuffer)
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.done.Add(2)
	go func() {
		defer c.done.Done()
		c.client.Run(ctx)
	}()
	go func() {
		defer c.done.Done()
		c.loop()
	}()
	return c
}

func (c *consumer) loop() {
	for ev := range c.sub.C() {
		if ev.Type != fleet.EventTag || ev.Tag == nil {
			continue
		}
		at := nowNS()
		w, ok := c.where[ev.Tag.EPC]
		if !ok {
			continue
		}
		count := ev.Tag.Readers[c.readers[w[0]]]
		c.mu.Lock()
		list := &c.seen[w[0]][w[1]]
		*list = append(*list, countAt{t: at, count: count})
		if c.window.Load() {
			c.pubLat = append(c.pubLat, wallNS(at)-ev.At.UnixNano())
		}
		c.mu.Unlock()
	}
}

// stop ends the stream and waits for both goroutines.
func (c *consumer) stop() {
	c.cancel()
	c.links.closeAll()
	c.sub.Close()
	c.done.Wait()
}

// links dials edge.Client's upstream connections and can sever them.
// edge.Client re-arms its read deadline before every frame read, so a
// cancelled context alone does not end a session whose upstream keeps
// sending heartbeats; closing the connection does.
type links struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (l *links) dial(count *atomic.Int64) func(ctx context.Context, addr string) (net.Conn, error) {
	return func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.conns = append(l.conns, nc)
		l.mu.Unlock()
		return &countingConn{Conn: nc, n: count}, nil
	}
}

func (l *links) closeAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
	l.conns = nil
}

// matchAges pairs each report with the first applied image that covers
// it. reports[i] is the write time of the (first+i)-th report of one
// (reader, EPC); images are that pair's applied counts in arrival order,
// with non-decreasing counts. It returns the age of every report and how
// many reports no image ever covered.
func matchAges(first int, reports []int64, images []countAt) (ages []int64, unmatched int) {
	j := 0
	for i, t := range reports {
		k := uint64(first + i)
		for j < len(images) && images[j].count < k {
			j++
		}
		if j == len(images) {
			unmatched += len(reports) - i
			break
		}
		ages = append(ages, images[j].t-t)
	}
	return ages, unmatched
}

// readingAges matches every report in reps against the consumer's
// images for reader ri. Reports outside [fromCycle, toCycle] only count
// toward unmatched.
func (c *consumer) readingAges(ri int, reps []reportRec, fromCycle, toCycle int32) (ages []int64, unmatched, inWindow int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	byEPC := make(map[int32][]reportRec)
	for _, r := range reps {
		byEPC[r.epc] = append(byEPC[r.epc], r)
	}
	keys := make([]int32, 0, len(byEPC))
	for k := range byEPC {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	for _, e := range keys {
		rs := byEPC[e]
		times := make([]int64, len(rs))
		for i, r := range rs {
			times[i] = r.t
		}
		a, u := matchAges(int(rs[0].k), times, c.seen[ri][e])
		unmatched += u
		for i, age := range a {
			if cy := rs[i].cycle; cy >= fromCycle && cy <= toCycle {
				ages = append(ages, age)
			}
		}
		for _, r := range rs {
			if r.cycle >= fromCycle && r.cycle <= toCycle {
				inWindow++
			}
		}
	}
	return ages, unmatched, inWindow
}

// countingConn counts bytes read through it.
type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}
