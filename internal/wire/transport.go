package wire

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"syscall"
	"time"
)

// The framed TCP protocols run request/response exchanges over
// persistent connections. A Server serves one request at a time on each
// accepted connection until the client closes it or it sits idle past
// idleTimeout. A Pool keeps up to maxIdlePerAddr idle client
// connections per server address and stops reusing one after
// clientIdle, well before the server would close it.
const (
	maxIdlePerAddr = 4
	idleTimeout    = 10 * time.Second
	clientIdle     = idleTimeout / 2
)

// stream is what an exchange reads and writes: buffered reads, so a
// frame's header and body cost one read call, and direct writes, since
// WriteRawFrame already writes each frame in one call.
type stream struct {
	r *bufio.Reader
	w io.Writer
}

func (s stream) Read(p []byte) (int, error)  { return s.r.Read(p) }
func (s stream) Write(p []byte) (int, error) { return s.w.Write(p) }

// wallNow reads the wall clock for socket deadlines and idle ages.
func wallNow() time.Time {
	return time.Now() //mdrep:allow wallclock: socket deadlines and idle ages on live connections, not replayed state
}

// Pool runs request/response exchanges over persistent client
// connections. The zero value is ready to use; it starts no goroutines.
type Pool struct {
	mu sync.Mutex
	// idle holds each address's idle connections oldest first, so the
	// last one is reused first and expiry runs from the front.
	idle   map[string][]*clientConn
	swept  time.Time
	closed bool
}

// clientConn is one pooled connection. Its Read and Write record how
// far the current exchange got, so Do can tell a connection the server
// had already closed from a request that failed.
type clientConn struct {
	conn    net.Conn
	rw      stream
	read    int       // reply bytes read in the current exchange
	err     error     // first I/O error of the current exchange
	expires time.Time // while idle: when it is too old to reuse
}

func (c *clientConn) Read(p []byte) (int, error) {
	n, err := c.conn.Read(p)
	c.read += n
	c.note(err)
	return n, err
}

func (c *clientConn) Write(p []byte) (int, error) {
	n, err := c.conn.Write(p)
	c.note(err)
	return n, err
}

func (c *clientConn) note(err error) {
	if c.err == nil {
		c.err = err
	}
}

// exchange runs fn on the connection under one callTimeout deadline.
func (c *clientConn) exchange(callTimeout time.Duration, fn func(io.ReadWriter) error) error {
	c.read, c.err = 0, nil
	if err := c.conn.SetDeadline(wallNow().Add(callTimeout)); err != nil {
		return err
	}
	return fn(c.rw)
}

// closedByServer reports whether the exchange failed because the server
// had closed the connection before the request reached it: EOF, reset
// or broken pipe before any reply byte. A timeout never qualifies, as
// the server may still be working on the request.
func (c *clientConn) closedByServer() bool {
	return c.read == 0 && (errors.Is(c.err, io.EOF) ||
		errors.Is(c.err, syscall.ECONNRESET) || errors.Is(c.err, syscall.EPIPE))
}

func dial(addr string, timeout time.Duration) (*clientConn, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := &clientConn{conn: conn}
	c.rw = stream{r: bufio.NewReader(c), w: c}
	return c, nil
}

// Do runs one exchange with the server at addr: fn writes a request
// frame to rw and reads the reply. It reuses an idle connection when
// there is one and dials otherwise, bounding the dial by dialTimeout
// and the exchange by callTimeout.
//
// When a reused connection turns out to have been closed by the server
// (see closedByServer), Do sends the request once more on a fresh dial,
// so fn must be safe to run twice. Every request of the DHT and of the
// evaluation exchange is idempotent. Any other failure is returned as
// is, and the connection is closed.
func (p *Pool) Do(addr string, dialTimeout, callTimeout time.Duration, fn func(rw io.ReadWriter) error) error {
	c := p.get(addr)
	reused := c != nil
	if !reused {
		var err error
		if c, err = dial(addr, dialTimeout); err != nil {
			return err
		}
	}
	err := c.exchange(callTimeout, fn)
	if err != nil && reused && c.closedByServer() {
		// The server restarted or dropped its idle connections, so the
		// rest of this address's idle connections are as stale as c.
		_ = c.conn.Close()
		p.drop(addr)
		if c, err = dial(addr, dialTimeout); err != nil {
			return err
		}
		err = c.exchange(callTimeout, fn)
	}
	if err != nil {
		_ = c.conn.Close()
		return err
	}
	p.put(addr, c)
	return nil
}

// get takes the newest idle connection to addr, or returns nil when
// there is none or it has expired (and with it every older one).
func (p *Pool) get(addr string) *clientConn {
	now := wallNow()
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := p.idle[addr]
	if len(idle) == 0 {
		return nil
	}
	c := idle[len(idle)-1]
	if !now.Before(c.expires) {
		p.dropLocked(addr)
		return nil
	}
	idle[len(idle)-1] = nil
	p.idle[addr] = idle[:len(idle)-1]
	return c
}

// put returns c to addr's idle connections, or closes it when the pool
// is closed or addr already has maxIdlePerAddr. At most once per
// clientIdle it also closes every expired connection, so addresses that
// are no longer called do not keep theirs open.
func (p *Pool) put(addr string, c *clientConn) {
	now := wallNow()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed || len(p.idle[addr]) >= maxIdlePerAddr {
		_ = c.conn.Close()
		return
	}
	if p.idle == nil {
		p.idle = make(map[string][]*clientConn)
	}
	if now.Sub(p.swept) >= clientIdle {
		p.swept = now
		for a, idle := range p.idle {
			n := 0
			for n < len(idle) && !now.Before(idle[n].expires) {
				_ = idle[n].conn.Close()
				n++
			}
			if n == len(idle) {
				delete(p.idle, a)
			} else {
				p.idle[a] = slices.Delete(idle, 0, n)
			}
		}
	}
	c.expires = now.Add(clientIdle)
	p.idle[addr] = append(p.idle[addr], c)
}

// drop closes every idle connection to addr.
func (p *Pool) drop(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropLocked(addr)
}

func (p *Pool) dropLocked(addr string) {
	for _, c := range p.idle[addr] {
		_ = c.conn.Close()
	}
	delete(p.idle, addr)
}

// Close closes the idle connections. Exchanges still running close
// their connections when they finish, and later calls to Do still work
// but close each connection after its exchange.
func (p *Pool) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for addr := range p.idle {
		p.dropLocked(addr)
	}
	return nil
}

// Server accepts TCP connections and serves framed requests on each,
// one at a time.
type Server struct {
	ln     net.Listener
	handle func(io.ReadWriter) error

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	closing bool
	wg      sync.WaitGroup
}

// Serve listens on addr (":0" for an ephemeral port) and serves every
// request with handle. A connection is closed when the client closes it
// or it sits idle past the server's timeout. Otherwise handle is called
// as soon as a request starts to arrive; it reads the request frame from
// rw and writes the reply. An error from handle, such as a malformed
// frame or a failed write, closes the connection. The caller must Close
// the server.
func Serve(addr string, handle func(rw io.ReadWriter) error) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newServer(ln, handle), nil
}

func newServer(ln net.Listener, handle func(io.ReadWriter) error) *Server {
	s := &Server{ln: ln, handle: handle, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener, closes every connection, and waits until
// no request is being served.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closing = true
	for conn := range s.conns {
		_ = conn.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closing {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	rw := stream{r: bufio.NewReader(conn), w: conn}
	for {
		// One deadline covers both the wait for the next request and
		// the exchange that follows.
		if conn.SetDeadline(wallNow().Add(idleTimeout)) != nil {
			return
		}
		if _, err := rw.r.Peek(1); err != nil {
			return
		}
		if s.handle(rw) != nil {
			return
		}
	}
}
