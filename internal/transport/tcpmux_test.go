package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestTCPMuxSharedConnection proves pipelining actually multiplexes: a
// burst of concurrent calls to one destination rides exactly one client
// connection, and the server dispatches them concurrently on it.
func TestTCPMuxSharedConnection(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	m := NewMux()
	var inFlight, peak atomic.Int64
	m.Handle("hold", func(req []byte) ([]byte, error) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
		inFlight.Add(-1)
		return req, nil
	})
	addr := freeAddr(t)
	stop, err := tr.Register(addr, m)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := []byte(fmt.Sprintf("m%d", i))
			resp, err := tr.Call(addr, "hold", msg)
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != string(msg) {
				errs <- fmt.Errorf("cross-wired response: got %q want %q", resp, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := peak.Load(); got < 2 {
		t.Fatalf("server-side dispatch concurrency peaked at %d — requests were serialized", got)
	}
	tr.mu.Lock()
	conns := len(tr.muxes)
	tr.mu.Unlock()
	if conns != 1 {
		t.Fatalf("16 concurrent calls used %d connections, want 1", conns)
	}
}

// TestTCPMuxTimeoutLeavesConnectionHealthy: a timed-out pipelined call
// abandons only its own request slot. The shared connection survives, the
// late response is discarded by ID, and concurrent in-flight calls on the
// same connection complete untouched.
func TestTCPMuxTimeoutLeavesConnectionHealthy(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	m := NewMux()
	m.Handle("slow", func([]byte) ([]byte, error) {
		time.Sleep(150 * time.Millisecond)
		return []byte("late"), nil
	})
	m.Handle("echo", func(req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	addr := freeAddr(t)
	stop, err := tr.Register(addr, m)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if _, err := tr.Call(addr, "echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	tr.mu.Lock()
	before := tr.muxes[addr]
	tr.mu.Unlock()
	// A concurrent slow call that outlives the timed-out one.
	survivor := make(chan error, 1)
	go func() {
		resp, err := tr.Call(addr, "slow", nil)
		if err == nil && string(resp) != "late" {
			err = fmt.Errorf("survivor got %q", resp)
		}
		survivor <- err
	}()
	if _, err := CallTimeout(tr, addr, "slow", nil, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("slow call = %v, want ErrTimeout", err)
	}
	// The connection is still the same one and still serves.
	resp, err := tr.Call(addr, "echo", []byte("after"))
	if err != nil || string(resp) != "echo:after" {
		t.Fatalf("post-timeout call = %q, %v", resp, err)
	}
	tr.mu.Lock()
	after := tr.muxes[addr]
	tr.mu.Unlock()
	if before != after {
		t.Fatal("timeout replaced the shared connection; it should stay pooled")
	}
	if err := <-survivor; err != nil {
		t.Fatalf("in-flight call on the shared connection: %v", err)
	}
	// Drain period: the late response for the abandoned ID must not be
	// delivered to anyone (no cross-wiring on subsequent calls).
	for i := 0; i < 4; i++ {
		msg := fmt.Sprintf("x%d", i)
		resp, err := tr.Call(addr, "echo", []byte(msg))
		if err != nil || string(resp) != "echo:"+msg {
			t.Fatalf("drain call %d = %q, %v", i, resp, err)
		}
	}
}

// TestTCPMuxReconnectsAfterServerRestart: a dead shared connection is
// detected, dropped, and redialed transparently on the next call.
func TestTCPMuxReconnectsAfterServerRestart(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	addr := freeAddr(t)
	stop, err := tr.Register(addr, echoMux())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(addr, "echo", []byte("one")); err != nil {
		t.Fatal(err)
	}
	stop()
	stop, err = tr.Register(addr, echoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// The cached mux conn is stale; the call must fail over to a fresh
	// dial within the same CallDeadline.
	resp, err := tr.Call(addr, "echo", []byte("two"))
	if err != nil || string(resp) != "echo:two" {
		t.Fatalf("post-restart call = %q, %v", resp, err)
	}
}

// TestTCPMuxOverloadStatus: admission-control rejects keep their
// retryable ErrOverloaded identity across the wire, and the shared
// connection remains usable (a reject is a clean exchange).
func TestTCPMuxOverloadStatus(t *testing.T) {
	t.Run("pipelined", func(t *testing.T) {
		tr := NewTCP()
		defer tr.CloseIdle()
		m := NewMux()
		block := make(chan struct{})
		started := make(chan struct{}, 1)
		m.Handle("slow", func([]byte) ([]byte, error) {
			started <- struct{}{}
			<-block
			return []byte("late"), nil
		})
		m.Handle("fast", func([]byte) ([]byte, error) { return []byte("ok"), nil })
		m.SetLimit(1, 0)
		addr := freeAddr(t)
		stop, err := tr.Register(addr, m)
		if err != nil {
			t.Fatal(err)
		}
		defer stop()
		slowDone := make(chan error, 1)
		go func() {
			_, err := tr.Call(addr, "slow", nil)
			slowDone <- err
		}()
		<-started
		_, err = tr.Call(addr, "fast", nil)
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("overloaded call = %v", err)
		}
		var re *RemoteError
		if errors.As(err, &re) {
			t.Fatal("overload crossed as RemoteError")
		}
		close(block)
		if err := <-slowDone; err != nil {
			t.Fatalf("slow call = %v", err)
		}
		resp, err := tr.Call(addr, "fast", nil)
		if err != nil || string(resp) != "ok" {
			t.Fatalf("post-reject call = %q, %v", resp, err)
		}
	})
}

// TestTCPClosesConnectionWithoutPreamble: a client that skips the
// preamble — here one that sends a well-formed request frame straight
// after dial — gets its connection closed, and no handler runs.
func TestTCPClosesConnectionWithoutPreamble(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	m := NewMux()
	var dispatched atomic.Int64
	m.Handle("echo", func(req []byte) ([]byte, error) {
		dispatched.Add(1)
		return req, nil
	})
	addr := freeAddr(t)
	stop, err := tr.Register(addr, m)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var f muxFrame
	f.encodeRequest(1, "echo", []byte("no preamble"))
	if _, err := conn.Write(f.buf); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// EOF, or a reset if the close raced bytes still in flight; a
	// response or a read timeout means the connection was served.
	if n, err := conn.Read(make([]byte, 64)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read %d bytes, err %v; want the connection closed", n, err)
	}
	// The close happens after the server gave up on the connection, so
	// a handler dispatched from it would have been counted by now.
	if n := dispatched.Load(); n != 0 {
		t.Fatalf("%d handlers dispatched from a connection without the preamble", n)
	}
	// The listener still serves clients that do speak the framing.
	if resp, err := tr.Call(addr, "echo", []byte("ok")); err != nil || string(resp) != "ok" {
		t.Fatalf("framed call after the rejected connection = %q, %v", resp, err)
	}
}
