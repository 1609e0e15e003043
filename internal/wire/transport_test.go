package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// seqFrame returns a frame whose body is seq, 8 bytes big-endian.
func seqFrame(seq int) []byte {
	return binary.BigEndian.AppendUint64(make([]byte, FrameHeader, FrameHeader+8), uint64(seq))
}

// readSeq reads a frame written by seqFrame and returns its seq.
func readSeq(r io.Reader) (int, error) {
	body, err := ReadRawFrame(r)
	if err != nil {
		return 0, err
	}
	if len(body) != 8 {
		return 0, fmt.Errorf("seq body of %d bytes", len(body))
	}
	return int(int64(binary.BigEndian.Uint64(body))), nil
}

// echo answers each request with itself.
func echo(rw io.ReadWriter) error {
	seq, err := readSeq(rw)
	if err != nil {
		return err
	}
	return WriteRawFrame(rw, seqFrame(seq))
}

// countingListener counts the connections a server accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// serveCounted starts a server on addr whose listener counts accepts.
func serveCounted(t *testing.T, addr string, handle func(io.ReadWriter) error) (*Server, *countingListener) {
	t.Helper()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	srv := newServer(cl, handle)
	t.Cleanup(func() { _ = srv.Close() })
	return srv, cl
}

// call sends seq through p to addr and checks the echo.
func call(p *Pool, addr string, seq int, callTimeout time.Duration) error {
	return p.Do(addr, time.Second, callTimeout, func(rw io.ReadWriter) error {
		if err := WriteRawFrame(rw, seqFrame(seq)); err != nil {
			return err
		}
		got, err := readSeq(rw)
		if err != nil {
			return err
		}
		if got != seq {
			return errors.New("echo mismatch")
		}
		return nil
	})
}

func TestPoolServesSequentialCallsOnOneConnection(t *testing.T) {
	srv, ln := serveCounted(t, "127.0.0.1:0", echo)
	var p Pool
	defer func() { _ = p.Close() }()
	for i := 0; i < 100; i++ {
		if err := call(&p, srv.Addr(), i, 2*time.Second); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := ln.accepted.Load(); n != 1 {
		t.Fatalf("100 sequential calls took %d connections, want 1", n)
	}

	// A connection idle past clientIdle is closed, not reused.
	p.mu.Lock()
	for _, c := range p.idle[srv.Addr()] {
		c.expires = wallNow()
	}
	p.mu.Unlock()
	if err := call(&p, srv.Addr(), 100, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := ln.accepted.Load(); n != 2 {
		t.Fatalf("call after expiry: %d connections, want 2", n)
	}
}

func TestPoolRedialsOnceAfterServerRestart(t *testing.T) {
	srv, _ := serveCounted(t, "127.0.0.1:0", echo)
	addr := srv.Addr()
	var p Pool
	defer func() { _ = p.Close() }()
	if err := call(&p, addr, 1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, restarted := serveCounted(t, addr, echo)
	// The pooled connection died with the old server: the request is
	// sent again on one fresh dial, and the caller sees no error.
	if err := call(&p, addr, 2, 2*time.Second); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if err := call(&p, addr, 3, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := restarted.accepted.Load(); n != 1 {
		t.Fatalf("restarted server accepted %d connections, want 1", n)
	}
}

func TestPoolTimeoutIsNotResent(t *testing.T) {
	release := make(chan struct{})
	var stalled atomic.Int64
	handle := func(rw io.ReadWriter) error {
		seq, err := readSeq(rw)
		if err != nil {
			return err
		}
		if seq < 0 {
			stalled.Add(1)
			<-release
		}
		return WriteRawFrame(rw, seqFrame(seq))
	}
	srv, _ := serveCounted(t, "127.0.0.1:0", handle)
	var p Pool
	defer func() { _ = p.Close() }()
	if err := call(&p, srv.Addr(), 1, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// The stalled request runs on the reused connection, where a reset
	// or EOF would be re-sent; a timeout must not be.
	err := call(&p, srv.Addr(), -1, 100*time.Millisecond)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled call: err = %v, want a deadline error", err)
	}
	close(release)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if n := stalled.Load(); n != 1 {
		t.Fatalf("server saw the timed-out request %d times, want 1", n)
	}
}

func TestPoolConcurrentCalls(t *testing.T) {
	srv, ln := serveCounted(t, "127.0.0.1:0", echo)
	var p Pool
	defer func() { _ = p.Close() }()
	const goroutines, calls = 32, 20
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				if err := call(&p, srv.Addr(), g*calls+i, 5*time.Second); err != nil {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	p.mu.Lock()
	idle := len(p.idle[srv.Addr()])
	p.mu.Unlock()
	if idle > maxIdlePerAddr {
		t.Errorf("%d idle connections, want at most %d", idle, maxIdlePerAddr)
	}
	if n := ln.accepted.Load(); n > goroutines*calls {
		t.Errorf("%d connections for %d calls", n, goroutines*calls)
	}
}

func TestOversizeFrameClosesOnlyItsConnection(t *testing.T) {
	srv, ln := serveCounted(t, "127.0.0.1:0", echo)
	var p Pool
	defer func() { _ = p.Close() }()
	if err := call(&p, srv.Addr(), 1, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	hostile, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hostile.Close() }()
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := hostile.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if err := hostile.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := hostile.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("oversize frame: read = %v, want EOF from the server closing", err)
	}

	// The pooled connection is untouched: the next call reuses it.
	if err := call(&p, srv.Addr(), 2, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if n := ln.accepted.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want the pooled one and the hostile one", n)
	}
}

func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := Serve("127.0.0.1:0", echo)
	if err != nil {
		t.Fatal(err)
	}
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if err := call(&p, srv.Addr(), g, 2*time.Second); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
