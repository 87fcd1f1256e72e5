package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"syscall"
	"time"
)

// TCP is the real-network implementation: every peer serves its Mux on a
// TCP listener, and a client pipelines every call to a destination over
// one shared connection as request-ID-tagged frames (see tcpmux.go for
// the framing and the connection loops).
type TCP struct {
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds a full request/response exchange (default 30s).
	CallTimeout time.Duration

	mu    sync.Mutex
	muxes map[string]*muxEntry
}

// NewTCP returns a TCP network with default timeouts.
func NewTCP() *TCP {
	return &TCP{
		DialTimeout: 5 * time.Second,
		CallTimeout: 30 * time.Second,
		muxes:       make(map[string]*muxEntry),
	}
}

// maxFrame bounds accepted method and payload lengths (64 MiB) so a
// corrupt length prefix cannot trigger an absurd allocation.
const maxFrame = 64 << 20

func (t *TCP) callTimeout() time.Duration {
	if t.CallTimeout <= 0 {
		return 30 * time.Second
	}
	return t.CallTimeout
}

// acceptBackoffCap bounds the retry backoff of a persistently failing
// Accept loop (e.g. EMFILE): the loop retries with doubling sleeps
// instead of busy-spinning, capped here.
const acceptBackoffCap = time.Second

// Register implements Network: it listens on addr (e.g. "127.0.0.1:0" is
// NOT supported — the address must be the peer's canonical address, since
// peers address each other by it) and serves until the returned stop
// function is called.
func (t *TCP) Register(addr string, mux *Mux) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if errors.Is(err, syscall.EADDRINUSE) {
			// Same classification as InMem's duplicate registration, so
			// the two transports report this case identically.
			return nil, fmt.Errorf("%w: %s: %v", ErrAddrInUse, addr, err)
		}
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	// Track live server-side connections so stop can unblock their reads.
	var connMu sync.Mutex
	conns := make(map[net.Conn]struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		var backoff time.Duration
		for {
			conn, err := ln.Accept()
			if err != nil {
				select {
				case <-done:
					return
				default:
				}
				// A temporary accept failure (fd exhaustion, aborted
				// handshake) must not busy-loop: back off with doubling
				// capped sleeps until accepts succeed again.
				if backoff == 0 {
					backoff = time.Millisecond
				} else if backoff *= 2; backoff > acceptBackoffCap {
					backoff = acceptBackoffCap
				}
				timer := time.NewTimer(backoff)
				select {
				case <-done:
					timer.Stop()
					return
				case <-timer.C:
				}
				continue
			}
			backoff = 0
			connMu.Lock()
			select {
			case <-done:
				connMu.Unlock()
				conn.Close()
				return
			default:
				conns[conn] = struct{}{}
			}
			connMu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				t.serveConn(conn, mux, done)
				connMu.Lock()
				delete(conns, conn)
				connMu.Unlock()
			}()
		}
	}()
	stop := func() {
		close(done)
		ln.Close()
		connMu.Lock()
		for c := range conns {
			c.Close() // unblocks serveConn reads
		}
		connMu.Unlock()
		wg.Wait()
	}
	return stop, nil
}

// serveConn serves one accepted connection. A client announces the
// framing with the preamble directly after dial; a connection that
// opens with anything else is closed without dispatching a byte of it.
func (t *TCP) serveConn(conn net.Conn, mux *Mux, done chan struct{}) {
	defer conn.Close()
	r := bufio.NewReader(conn)
	if peek, err := r.Peek(len(muxPreamble)); err != nil || string(peek) != muxPreamble {
		return
	}
	r.Discard(len(muxPreamble))
	t.serveMuxConn(conn, r, mux, done)
}

// Call implements Caller.
func (t *TCP) Call(addr, method string, req []byte) ([]byte, error) {
	return t.CallDeadline(addr, method, req, 0)
}

// CloseIdle drops every client connection (for shutdown hygiene in
// tests). In-flight calls fail with a connection error and redial on
// their retry.
func (t *TCP) CloseIdle() {
	t.mu.Lock()
	muxes := t.muxes
	t.muxes = make(map[string]*muxEntry)
	t.mu.Unlock()
	for _, e := range muxes {
		e.close()
	}
}

// responseStatus classifies a handler outcome for the wire.
func responseStatus(herr error) (status byte, body []byte) {
	if herr == nil {
		return 0, nil
	}
	if errors.Is(herr, ErrOverloaded) {
		// Admission-control rejects cross the wire with their own
		// status so the client can classify them as retryable
		// (RemoteError is not) without string-matching.
		return 2, []byte(herr.Error())
	}
	return 1, []byte(herr.Error())
}

// decodeStatus converts a wire status + body into the caller-visible
// (payload, remote-error-text, error) triple.
func decodeStatus(status byte, body []byte) (payload []byte, remoteErr string, err error) {
	switch status {
	case 0:
		return body, "", nil
	case 1:
		return nil, string(body), nil
	case 2:
		return nil, "", fmt.Errorf("%w: %s", ErrOverloaded, string(body))
	default:
		return nil, "", errors.New("transport: bad response status")
	}
}

func readChunk(r *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit", n)
	}
	// Grow the buffer as bytes actually arrive instead of trusting the
	// prefix: a frame that lies about its length (truncated stream,
	// attacker-chosen prefix) then errors without having committed an
	// n-sized allocation.
	const step = 64 << 10
	if n <= step {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		return buf, nil
	}
	buf := make([]byte, 0, step)
	for uint64(len(buf)) < n {
		chunk := n - uint64(len(buf))
		if chunk > step {
			chunk = step
		}
		start := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}
