package edge

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// serveStreamHeaders plays an upstream's side of one SSE request on
// conn: it reads the request through its blank line and answers 200
// with event-stream headers.
func serveStreamHeaders(conn net.Conn) (*bufio.Reader, error) {
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, err
		}
		if strings.TrimRight(line, "\r\n") == "" {
			break
		}
	}
	_, err := fmt.Fprint(conn, "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\r\n")
	return br, err
}

// interruptConn reports the first attempt to interrupt it — a deadline
// or a close — on interrupted.
type interruptConn struct {
	net.Conn
	once        sync.Once
	interrupted chan struct{}
}

func (c *interruptConn) signal() { c.once.Do(func() { close(c.interrupted) }) }

func (c *interruptConn) SetDeadline(t time.Time) error {
	c.signal()
	return c.Conn.SetDeadline(t)
}

func (c *interruptConn) Close() error {
	c.signal()
	return c.Conn.Close()
}

// TestRunStopsOnCancelWhileUpstreamTalks: cancelling Run must end it
// promptly even while upstream keeps the stream alive with a keepalive
// every 10 ms. The cancel lands between two frame reads (the client's
// "streaming" log line, just before the frame loop), and the test waits
// until the cancel hook has acted on the conn. A deadline set there is
// overwritten by the next read's own deadline, so only closing the conn
// stops the loop.
func TestRunStopsOnCancelWhileUpstreamTalks(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := serveStreamHeaders(conn); err != nil {
			return
		}
		for {
			conn.SetWriteDeadline(time.Now().Add(5 * time.Second))
			if _, err := fmt.Fprint(conn, ":keepalive\n\n"); err != nil {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := edgeConfig(lis.Addr().String())
	var ic *interruptConn
	cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		ic = &interruptConn{Conn: conn, interrupted: make(chan struct{})}
		return ic, nil
	}
	cfg.Logf = func(format string, args ...any) {
		if !strings.HasPrefix(format, "edge: streaming from") {
			return
		}
		cancel()
		select {
		case <-ic.interrupted:
		case <-time.After(5 * time.Second):
			t.Error("cancel never reached the conn")
		}
	}
	c := NewClient(cfg)
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Run still following upstream 1s after cancel")
	}
}

// TestBackoffResetsAfterEstablishedSession: a session that got as far
// as streaming resets the backoff, so lifetime blips do not pin every
// later redial at BackoffMax. Dials 1–3 fail outright (retries 1, 2, 3);
// every later dial is accepted, streams, then drops — each of those
// retries must start from the first step again.
func TestBackoffResetsAfterEstablishedSession(t *testing.T) {
	cfg := edgeConfig("upstream.test:1")
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 5 * time.Millisecond
	var mu sync.Mutex
	dials := 0
	cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		mu.Lock()
		dials++
		n := dials
		mu.Unlock()
		if n <= 3 {
			return nil, errors.New("connection refused")
		}
		client, server := net.Pipe()
		go func() {
			defer server.Close()
			serveStreamHeaders(server)
		}()
		return client, nil
	}
	retryRE := regexp.MustCompile(`\(retry (\d+) in `)
	var retries []int
	enough := make(chan struct{})
	cfg.Logf = func(format string, args ...any) {
		m := retryRE.FindStringSubmatch(fmt.Sprintf(format, args...))
		if m == nil {
			return
		}
		n, _ := strconv.Atoi(m[1])
		mu.Lock()
		defer mu.Unlock()
		if retries = append(retries, n); len(retries) == 8 {
			close(enough)
		}
	}

	c := NewClient(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Run(ctx) }()
	select {
	case <-enough:
	case <-time.After(10 * time.Second):
		t.Fatal("too few redials")
	}
	cancel()
	<-done

	mu.Lock()
	defer mu.Unlock()
	want := []int{1, 2, 3, 1, 1, 1, 1, 1}
	for i, w := range want {
		if retries[i] != w {
			t.Fatalf("retry numbers %v, want prefix %v", retries, want)
		}
	}
	if s := c.Status().Sessions; s < 5 {
		t.Fatalf("%d sessions established, want ≥ 5", s)
	}
}
