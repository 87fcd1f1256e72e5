package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// This file is the TCP transport's framing and connection loops. Every
// call to a destination is pipelined over one shared connection:
//
//   - A client connection announces itself with the 4-byte preamble
//     "\xffIQ2"; the server closes a connection that opens otherwise.
//   - Request frames carry a connection-local request ID:
//     uvarint id | uvarint methodLen | method | uvarint payloadLen | payload.
//   - Response frames echo the ID:
//     uvarint id | status byte (0 ok, 1 remote error, 2 overloaded) | uvarint len | body.
//     Responses may arrive in any order; the server dispatches every
//     request on its own goroutine and a single writer serializes frames.
//   - Each side runs one reader and one writer goroutine per connection.
//     Callers park on a per-call channel; a timed-out call abandons only
//     its own slot (the late response is discarded by ID) and the
//     connection stays healthy for everyone else.
//   - Frame buffers and per-call slots are sync.Pool-recycled, so a
//     steady-state call allocates only its response payload.

// muxPreamble is the magic a client sends once per connection, directly
// after dial.
const muxPreamble = "\xffIQ2"

// errMuxClosed reports a connection torn down by CloseIdle.
var errMuxClosed = errors.New("transport: connection closed")

// muxFrame is one encoded wire frame, pooled so steady-state calls reuse
// buffers instead of allocating per frame.
type muxFrame struct{ buf []byte }

var framePool = sync.Pool{New: func() any { return new(muxFrame) }}

func getFrame() *muxFrame  { return framePool.Get().(*muxFrame) }
func putFrame(f *muxFrame) { f.buf = f.buf[:0]; framePool.Put(f) }

func (f *muxFrame) appendUvarint(v uint64) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], v)
	f.buf = append(f.buf, hdr[:n]...)
}

func (f *muxFrame) encodeRequest(id uint64, method string, payload []byte) {
	f.buf = f.buf[:0]
	f.appendUvarint(id)
	f.appendUvarint(uint64(len(method)))
	f.buf = append(f.buf, method...)
	f.appendUvarint(uint64(len(payload)))
	f.buf = append(f.buf, payload...)
}

// readRequestFrame parses one request frame. Lengths are bounded by
// maxFrame and buffers grow only as bytes arrive (readChunk), so a
// truncated or lying frame errors without a large allocation.
func readRequestFrame(r *bufio.Reader) (id uint64, method string, payload []byte, err error) {
	if id, err = binary.ReadUvarint(r); err != nil {
		return 0, "", nil, err
	}
	m, err := readChunk(r)
	if err != nil {
		return 0, "", nil, err
	}
	if payload, err = readChunk(r); err != nil {
		return 0, "", nil, err
	}
	return id, string(m), payload, nil
}

func (f *muxFrame) encodeResponse(id uint64, resp []byte, herr error) {
	status, body := responseStatus(herr)
	if herr == nil {
		body = resp
	}
	f.buf = f.buf[:0]
	f.appendUvarint(id)
	f.buf = append(f.buf, status)
	f.appendUvarint(uint64(len(body)))
	f.buf = append(f.buf, body...)
}

// readResponseFrame parses one response frame under the same bounds as
// readRequestFrame.
func readResponseFrame(r *bufio.Reader) (id uint64, status byte, body []byte, err error) {
	if id, err = binary.ReadUvarint(r); err != nil {
		return 0, 0, nil, err
	}
	if status, err = r.ReadByte(); err != nil {
		return 0, 0, nil, err
	}
	if body, err = readChunk(r); err != nil {
		return 0, 0, nil, err
	}
	return id, status, body, nil
}

// muxCall is one caller's parking slot. The delivery channel is buffered
// (capacity 1) and every hand-off — response, connection failure, or
// timeout abandonment — happens under the owning connection's mutex, so a
// drained slot is safely recyclable through the pool.
type muxCall struct {
	ch     chan struct{}
	status byte
	resp   []byte
	err    error
}

var callPool = sync.Pool{New: func() any { return &muxCall{ch: make(chan struct{}, 1)} }}

func getCall() *muxCall { return callPool.Get().(*muxCall) }

func putCall(c *muxCall) {
	c.status, c.resp, c.err = 0, nil, nil
	callPool.Put(c)
}

// muxEntry is the per-destination slot in TCP.muxes: the first caller
// dials while later callers wait on ready instead of racing dials.
type muxEntry struct {
	ready chan struct{}
	mc    *muxConn
	err   error
}

func (e *muxEntry) close() {
	<-e.ready
	if e.mc != nil {
		e.mc.fail(errMuxClosed)
	}
}

// muxConn is one client connection: a shared reader/writer goroutine
// pair and the pending-call table keyed by request ID.
type muxConn struct {
	conn    net.Conn
	writeCh chan *muxFrame
	dead    chan struct{} // closed by fail; unblocks senders and the writer

	mu      sync.Mutex
	pending map[uint64]*muxCall
	nextID  uint64
	err     error
}

// getMux returns the destination's shared connection, dialing it if
// absent (concurrent first callers coalesce onto one dial).
func (t *TCP) getMux(addr string) (*muxConn, error) {
	t.mu.Lock()
	e := t.muxes[addr]
	if e != nil {
		t.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, e.err
		}
		return e.mc, nil
	}
	e = &muxEntry{ready: make(chan struct{})}
	t.muxes[addr] = e
	t.mu.Unlock()
	mc, err := t.dialMux(addr)
	if err != nil {
		t.mu.Lock()
		if t.muxes[addr] == e {
			delete(t.muxes, addr)
		}
		t.mu.Unlock()
		e.err = err
		close(e.ready)
		return nil, err
	}
	e.mc = mc
	close(e.ready)
	return mc, nil
}

// removeMux forgets a failed connection so the next call redials.
func (t *TCP) removeMux(addr string, mc *muxConn) {
	t.mu.Lock()
	if e := t.muxes[addr]; e != nil {
		select {
		case <-e.ready:
			if e.mc == mc {
				delete(t.muxes, addr)
			}
		default:
		}
	}
	t.mu.Unlock()
}

func (t *TCP) dialMux(addr string) (*muxConn, error) {
	timeout := t.DialTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
	}
	conn.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := conn.Write([]byte(muxPreamble)); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, err)
	}
	conn.SetWriteDeadline(time.Time{})
	mc := &muxConn{
		conn:    conn,
		writeCh: make(chan *muxFrame, 128),
		dead:    make(chan struct{}),
		pending: make(map[uint64]*muxCall),
	}
	go mc.readLoop()
	go mc.writeLoop(t.callTimeout())
	return mc, nil
}

// CallDeadline implements DeadlineCaller: the whole exchange — fresh
// dial included — must finish within d (d ≤ 0: the transport's
// CallTimeout). The request is enqueued on the destination's shared
// connection and the caller parks until the tagged response, a
// connection failure, or the deadline. A timed-out call abandons only
// its own request slot; a connection-level failure is retried once on a
// fresh dial while budget remains, since the shared connection may have
// died long ago, idle.
func (t *TCP) CallDeadline(addr, method string, req []byte, d time.Duration) ([]byte, error) {
	timeout := t.callTimeout()
	if d > 0 && d < timeout {
		timeout = d
	}
	deadline := time.Now().Add(timeout)
	var lastErr error
	for attempt := 0; attempt < 2; attempt++ {
		mc, err := t.getMux(addr)
		if err != nil {
			return nil, err // dial failures are already ErrUnreachable
		}
		resp, rerr, err := mc.roundTrip(method, req, deadline)
		if err == nil {
			if rerr != nil {
				return nil, rerr
			}
			return resp, nil
		}
		if errors.Is(err, ErrOverloaded) {
			// A clean admission-control reject: the connection is fine.
			return nil, err
		}
		if errors.Is(err, ErrTimeout) {
			return nil, fmt.Errorf("%w: %s %s after %v", ErrTimeout, addr, method, timeout)
		}
		// The shared connection died (possibly long ago, idle): drop it
		// and retry once on a fresh dial while the caller still waits.
		t.removeMux(addr, mc)
		lastErr = err
		if !time.Now().Before(deadline) {
			break
		}
	}
	return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, addr, lastErr)
}

// roundTrip performs one pipelined exchange. On timeout only this call's
// pending slot is abandoned — the connection and its other in-flight
// calls are untouched, and the late response is dropped by ID.
func (mc *muxConn) roundTrip(method string, req []byte, deadline time.Time) ([]byte, *RemoteError, error) {
	call := getCall()
	mc.mu.Lock()
	if mc.err != nil {
		err := mc.err
		mc.mu.Unlock()
		putCall(call)
		return nil, nil, err
	}
	mc.nextID++
	id := mc.nextID
	mc.pending[id] = call
	mc.mu.Unlock()

	f := getFrame()
	f.encodeRequest(id, method, req)
	select {
	case mc.writeCh <- f:
	case <-mc.dead:
		putFrame(f)
		// fail() already delivered the error to every pending slot,
		// ours included (or we raced its snapshot and must unregister).
		return mc.finish(id, method, call, deadline)
	}

	return mc.finish(id, method, call, deadline)
}

// finish waits for the call's delivery or deadline and recycles the slot.
func (mc *muxConn) finish(id uint64, method string, call *muxCall, deadline time.Time) ([]byte, *RemoteError, error) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-call.ch:
	case <-timer.C:
		mc.mu.Lock()
		if _, still := mc.pending[id]; still {
			delete(mc.pending, id)
			mc.mu.Unlock()
			putCall(call)
			return nil, nil, ErrTimeout
		}
		mc.mu.Unlock()
		// Delivery won the race with the timer: it is already in the
		// buffered channel (or a send away); take it.
		<-call.ch
	}
	status, body, err := call.status, call.resp, call.err
	putCall(call)
	if err != nil {
		return nil, nil, err
	}
	payload, rmsg, err := decodeStatus(status, body)
	if err != nil {
		return nil, nil, err
	}
	if rmsg != "" {
		return nil, &RemoteError{Method: method, Msg: rmsg}, nil
	}
	return payload, nil, nil
}

// readLoop is the connection's shared reader: it matches response frames
// to pending calls by ID and discards responses nobody waits for.
func (mc *muxConn) readLoop() {
	r := bufio.NewReader(mc.conn)
	for {
		id, status, body, err := readResponseFrame(r)
		if err != nil {
			mc.fail(err)
			return
		}
		mc.mu.Lock()
		call := mc.pending[id]
		delete(mc.pending, id)
		if call != nil {
			call.status, call.resp = status, body
			call.ch <- struct{}{} // buffered; never blocks
		}
		mc.mu.Unlock()
	}
}

// writeLoop is the connection's shared writer: it batches queued frames
// and flushes when the queue drains.
func (mc *muxConn) writeLoop(timeout time.Duration) {
	w := bufio.NewWriter(mc.conn)
	for {
		var f *muxFrame
		select {
		case f = <-mc.writeCh:
		default:
			mc.conn.SetWriteDeadline(time.Now().Add(timeout))
			if err := w.Flush(); err != nil {
				mc.fail(err)
				return
			}
			select {
			case f = <-mc.writeCh:
			case <-mc.dead:
				return
			}
		}
		mc.conn.SetWriteDeadline(time.Now().Add(timeout))
		if _, err := w.Write(f.buf); err != nil {
			putFrame(f)
			mc.fail(err)
			return
		}
		putFrame(f)
	}
}

// fail tears the connection down once: every pending call receives the
// error, senders and the writer unblock via dead, late registrations see
// mc.err.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.err != nil {
		mc.mu.Unlock()
		return
	}
	mc.err = err
	calls := mc.pending
	mc.pending = make(map[uint64]*muxCall)
	for _, c := range calls {
		c.err = err
		c.ch <- struct{}{}
	}
	mc.mu.Unlock()
	close(mc.dead)
	mc.conn.Close()
}

// serveMuxConn is the server side of a connection: one reader goroutine
// parses request frames and dispatches each on its own goroutine
// (concurrency is bounded by the Mux's admission control when armed, not
// by the connection), and one writer goroutine serializes the response
// frames in completion order.
func (t *TCP) serveMuxConn(conn net.Conn, r *bufio.Reader, mux *Mux, done chan struct{}) {
	replies := make(chan *muxFrame, 128)
	writerDone := make(chan struct{})
	connDead := make(chan struct{})
	var killOnce sync.Once
	kill := func() {
		killOnce.Do(func() {
			close(connDead)
			conn.Close()
		})
	}
	timeout := t.callTimeout()
	go func() {
		defer close(writerDone)
		w := bufio.NewWriter(conn)
		for {
			var f *muxFrame
			var ok bool
			select {
			case f, ok = <-replies:
			default:
				conn.SetWriteDeadline(time.Now().Add(timeout))
				if err := w.Flush(); err != nil {
					kill()
				}
				f, ok = <-replies
			}
			if !ok {
				conn.SetWriteDeadline(time.Now().Add(timeout))
				w.Flush()
				return
			}
			conn.SetWriteDeadline(time.Now().Add(timeout))
			if _, err := w.Write(f.buf); err != nil {
				kill() // keep draining so handlers never block forever
			}
			putFrame(f)
		}
	}()
	var wg sync.WaitGroup
	for {
		select {
		case <-done:
			kill()
		default:
		}
		id, method, payload, err := readRequestFrame(r)
		if err != nil {
			break
		}
		wg.Add(1)
		go func(id uint64, method string, payload []byte) {
			defer wg.Done()
			resp, herr := mux.Dispatch(method, payload)
			f := getFrame()
			f.encodeResponse(id, resp, herr)
			select {
			case replies <- f:
			case <-connDead:
				putFrame(f)
			}
		}(id, method, payload)
	}
	wg.Wait()
	close(replies)
	<-writerDone
	kill()
}
