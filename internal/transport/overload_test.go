package transport

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestOverloadedClassification(t *testing.T) {
	if errors.Is(ErrOverloaded, ErrUnreachable) {
		t.Fatal("ErrOverloaded must not match ErrUnreachable: the peer answered")
	}
	if !Retryable(ErrOverloaded) {
		t.Fatal("ErrOverloaded not retryable")
	}
}

func TestMuxAdmissionControl(t *testing.T) {
	m := NewMux()
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	m.Handle("slow", func([]byte) ([]byte, error) {
		started <- struct{}{}
		<-block
		return []byte("done"), nil
	})
	m.SetLimit(2, 1)
	// Fill both in-flight slots.
	results := make(chan error, 4)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := m.Dispatch("slow", nil)
			results <- err
		}()
	}
	<-started
	<-started
	// Third call queues (blocks) — give it a moment to take the queue slot.
	go func() {
		_, err := m.Dispatch("slow", nil)
		results <- err
	}()
	deadline := time.After(2 * time.Second)
	for {
		m.qmu.Lock()
		q := m.queued
		m.qmu.Unlock()
		if q == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("third call never queued")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	// Fourth call finds slots and queue full: fast ErrOverloaded, no hang.
	if _, err := m.Dispatch("slow", nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow dispatch = %v", err)
	}
	// Release: all three admitted calls complete.
	close(block)
	for i := 0; i < 3; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted call %d = %v", i, err)
		}
	}
	// Capacity is released afterwards.
	m.Handle("fast", func([]byte) ([]byte, error) { return []byte("ok"), nil })
	if resp, err := m.Dispatch("fast", nil); err != nil || string(resp) != "ok" {
		t.Fatalf("post-overload dispatch = %q, %v", resp, err)
	}
	// Disarming removes the limit entirely.
	m.SetLimit(0, 0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := m.Dispatch("fast", nil); err != nil {
				t.Errorf("unlimited dispatch = %v", err)
			}
		}()
	}
	wg.Wait()
}

func TestInMemOverloadKeepsIdentity(t *testing.T) {
	n := NewInMem()
	m := NewMux()
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	m.Handle("slow", func([]byte) ([]byte, error) {
		started <- struct{}{}
		<-block
		return nil, nil
	})
	m.SetLimit(1, 0)
	if _, err := n.Register("s", m); err != nil {
		t.Fatal(err)
	}
	go n.Call("s", "slow", nil)
	<-started
	defer close(block)
	_, err := n.Call("s", "slow", nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded call = %v", err)
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Fatal("overload crossed the wire as RemoteError (would be non-retryable)")
	}
	if !Retryable(err) {
		t.Fatal("overload not retryable across InMem")
	}
}

func TestTCPOverloadStatusByte(t *testing.T) {
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
	// Second call is shed with ErrOverloaded — carried by its own status
	// byte, so it keeps its retryable identity across the wire.
	_, err = tr.Call(addr, "fast", nil)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded TCP call = %v", err)
	}
	var re *RemoteError
	if errors.As(err, &re) {
		t.Fatal("overload crossed TCP as RemoteError")
	}
	if !Retryable(err) {
		t.Fatal("overload not retryable across TCP")
	}
	// The reject was a clean exchange: the same pooled connection serves
	// the next call once capacity frees up.
	close(block)
	if err := <-slowDone; err != nil {
		t.Fatalf("admitted slow call = %v", err)
	}
	resp, err := tr.Call(addr, "fast", nil)
	if err != nil || string(resp) != "ok" {
		t.Fatalf("post-overload call = %q, %v", resp, err)
	}
}

// slowCaller answers with a per-address scripted delay — a controllable
// stand-in for a slow replica in hedging tests.
type slowCaller struct {
	mu    sync.Mutex
	delay map[string]time.Duration
	fail  map[string]error
	calls map[string]*atomic.Int64
}

func newSlowCaller() *slowCaller {
	return &slowCaller{
		delay: make(map[string]time.Duration),
		fail:  make(map[string]error),
		calls: make(map[string]*atomic.Int64),
	}
}

func (s *slowCaller) set(addr string, d time.Duration, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.delay[addr] = d
	s.fail[addr] = err
	s.calls[addr] = &atomic.Int64{}
}

func (s *slowCaller) count(addr string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.calls[addr]; c != nil {
		return c.Load()
	}
	return 0
}

func (s *slowCaller) Call(addr, _ string, _ []byte) ([]byte, error) {
	s.mu.Lock()
	d, err, c := s.delay[addr], s.fail[addr], s.calls[addr]
	s.mu.Unlock()
	if c != nil {
		c.Add(1)
	}
	if d > 0 {
		time.Sleep(d)
	}
	if err != nil {
		return nil, err
	}
	return []byte("from:" + addr), nil
}

// slowLeg is the leg a Hedged call runs against a slowCaller.
func slowLeg(sc *slowCaller) func(addr string) ([]byte, error) {
	return func(addr string) ([]byte, error) { return sc.Call(addr, "get", nil) }
}

func TestHedgedFastPrimaryNoHedge(t *testing.T) {
	sc := newSlowCaller()
	sc.set("r1", 0, nil)
	sc.set("r2", 0, nil)
	h := Hedged[[]byte]{Delay: 50 * time.Millisecond}
	resp, winner, err := h.Call([]string{"r1", "r2"}, slowLeg(sc), nil)
	if err != nil || winner != "r1" || string(resp) != "from:r1" {
		t.Fatalf("Call = %q, winner %q, %v", resp, winner, err)
	}
	if sc.count("r2") != 0 {
		t.Fatal("fast primary still hedged to the second replica")
	}
}

func TestHedgedSlowPrimaryCostsDelayNotLatency(t *testing.T) {
	sc := newSlowCaller()
	sc.set("r1", 400*time.Millisecond, nil)
	sc.set("r2", 0, nil)
	h := Hedged[[]byte]{Delay: 30 * time.Millisecond}
	start := time.Now()
	resp, winner, err := h.Call([]string{"r1", "r2"}, slowLeg(sc), nil)
	elapsed := time.Since(start)
	if err != nil || winner != "r2" || string(resp) != "from:r2" {
		t.Fatalf("Call = %q, winner %q, %v", resp, winner, err)
	}
	// One slow replica costs roughly the hedge delay, not its full latency.
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("hedged call took %v — waited out the slow replica", elapsed)
	}
}

func TestHedgedFailoverIsImmediate(t *testing.T) {
	sc := newSlowCaller()
	sc.set("r1", 0, ErrUnreachable)
	sc.set("r2", 0, nil)
	// A failure must fire the next replica immediately, not wait out the
	// hedge delay.
	h := Hedged[[]byte]{Delay: time.Hour}
	done := make(chan struct{})
	var winner string
	var err error
	go func() {
		_, winner, err = h.Call([]string{"r1", "r2"}, slowLeg(sc), nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("fail-over waited for the hedge delay")
	}
	if err != nil || winner != "r2" {
		t.Fatalf("winner %q, %v", winner, err)
	}
}

func TestHedgedAllFail(t *testing.T) {
	sc := newSlowCaller()
	sc.set("r1", 0, ErrUnreachable)
	sc.set("r2", 0, ErrUnreachable)
	sc.set("r3", 0, ErrUnreachable)
	for _, delay := range []time.Duration{0, time.Millisecond} {
		h := Hedged[[]byte]{Delay: delay}
		var blamed []string
		_, _, err := h.Call([]string{"r1", "r2", "r3"}, slowLeg(sc), func(addr string, _ error) {
			blamed = append(blamed, addr)
		})
		if !errors.Is(err, ErrUnreachable) {
			t.Fatalf("delay %v: all-fail error = %v", delay, err)
		}
		if len(blamed) != 3 {
			t.Fatalf("delay %v: failed legs reported = %v, want all three", delay, blamed)
		}
		// No addresses at all is a loud, well-formed error, not a hang.
		_, _, err = h.Call(nil, slowLeg(sc), nil)
		if !errors.Is(err, ErrUnreachable) || strings.Contains(err.Error(), "%!") {
			t.Fatalf("delay %v: no-address error = %v", delay, err)
		}
	}
	for _, r := range []string{"r1", "r2", "r3"} {
		if sc.count(r) != 2 {
			t.Fatalf("%s called %d times, want once per Call", r, sc.count(r))
		}
	}
}

// TestHedgedZeroDelayFailsOverInOrder: with no hedge delay the legs run
// one at a time on the caller's goroutine, in replica order, and the
// first success ends the walk — later replicas are never asked.
func TestHedgedZeroDelayFailsOverInOrder(t *testing.T) {
	sc := newSlowCaller()
	sc.set("r1", 0, ErrUnreachable)
	sc.set("r2", 0, nil)
	sc.set("r3", 0, nil)
	var order, blamed []string
	leg := func(addr string) ([]byte, error) {
		order = append(order, addr) // no lock: legs must not overlap
		return sc.Call(addr, "get", nil)
	}
	resp, winner, err := Hedged[[]byte]{}.Call([]string{"r1", "r2", "r3"}, leg, func(addr string, _ error) {
		blamed = append(blamed, addr)
	})
	if err != nil || winner != "r2" || string(resp) != "from:r2" {
		t.Fatalf("Call = %q, winner %q, %v", resp, winner, err)
	}
	if strings.Join(order, ",") != "r1,r2" {
		t.Fatalf("legs ran %v, want r1 then r2 and nothing after the first success", order)
	}
	if strings.Join(blamed, ",") != "r1" {
		t.Fatalf("failed legs reported = %v, want [r1]", blamed)
	}
	if sc.count("r3") != 0 {
		t.Fatal("fail-over kept going past the first success")
	}
}

func TestHedgedInvokeTyped(t *testing.T) {
	n := NewInMem()
	m := NewMux()
	pongRPC.Handle(m, pong)
	if _, err := n.Register("r2", m); err != nil {
		t.Fatal(err)
	}
	// r1 is unregistered (unreachable): the typed leg falls through to r2
	// and its decoded value is what the call returns.
	leg := func(addr string) (string, error) {
		out, _, err := pongRPC.Call(n, addr, struct{}{}, RetryPolicy{})
		return out, err
	}
	for _, delay := range []time.Duration{0, 10 * time.Millisecond} {
		out, winner, err := Hedged[string]{Delay: delay}.Call([]string{"r1", "r2"}, leg, nil)
		if err != nil || winner != "r2" || out != "pong" {
			t.Fatalf("delay %v: Call = %q from %q, %v", delay, out, winner, err)
		}
	}
}

// TestCallTimeoutDoesNotPoisonPool is the regression test for the
// connection-poisoning bug: a TCP call abandoned at its deadline used to
// leave its pooled connection alive with a response still in flight, so
// the next call on that connection read the stale response — and the
// stale-redial path could silently re-send a request whose caller had
// already given up. With native deadlines the timed-out connection is
// closed, the request is delivered exactly once, and subsequent calls
// get clean connections.
func TestCallTimeoutDoesNotPoisonPool(t *testing.T) {
	tr := NewTCP()
	tr.CallTimeout = 100 * time.Millisecond
	defer tr.CloseIdle()
	m := NewMux()
	var slowCalls atomic.Int64
	m.Handle("slow", func([]byte) ([]byte, error) {
		slowCalls.Add(1)
		time.Sleep(300 * time.Millisecond)
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
	// Warm the pool so the slow call reuses a pooled connection (the
	// poisoning scenario: err on a non-fresh conn used to trigger a
	// redial-and-resend even after the deadline).
	if _, err := tr.Call(addr, "echo", []byte("warm")); err != nil {
		t.Fatal(err)
	}
	_, err = CallTimeout(tr, addr, "slow", nil, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("slow call = %v", err)
	}
	// Exactly one delivery: the abandoned request must not be re-sent on
	// a fresh dial after the caller gave up.
	time.Sleep(400 * time.Millisecond)
	if n := slowCalls.Load(); n != 1 {
		t.Fatalf("slow handler invoked %d times, want 1", n)
	}
	// Follow-up calls get clean connections and correct responses — no
	// stale "late" payload from the abandoned exchange.
	for i := 0; i < 4; i++ {
		resp, err := tr.Call(addr, "echo", []byte{byte('0' + i)})
		if err != nil || string(resp) != "echo:"+string(byte('0'+i)) {
			t.Fatalf("post-timeout call %d = %q, %v", i, resp, err)
		}
	}
}

// TestFaultyDeadlineDeterministic verifies the injected-delay/deadline
// interaction is pure arithmetic: a delay at or beyond the budget times
// out even with a no-op sleeper, so simulated overload scenarios are
// deterministic regardless of wall-clock behavior.
func TestFaultyDeadlineDeterministic(t *testing.T) {
	f := NewFaulty(NewInMem(), 3)
	var slept []time.Duration
	f.SetSleep(func(d time.Duration) { slept = append(slept, d) })
	m := NewMux()
	m.Handle("get", func([]byte) ([]byte, error) { return []byte("ok"), nil })
	if _, err := f.Register("p", m); err != nil {
		t.Fatal(err)
	}
	id := f.AddRule(Rule{To: "p", DelayProb: 1, Delay: 500 * time.Millisecond})
	ep := f.Endpoint("caller")
	// Budget below the injected delay: deterministic timeout, and the
	// "sleep" is only the budget (a real caller would stop waiting then).
	_, err := CallTimeout(ep, "p", "get", nil, 100*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("budgeted call = %v", err)
	}
	if len(slept) != 1 || slept[0] != 100*time.Millisecond {
		t.Fatalf("slept %v, want exactly the budget", slept)
	}
	// Budget above the delay: the call proceeds after the injected latency.
	resp, err := CallTimeout(ep, "p", "get", nil, time.Second)
	if err != nil || string(resp) != "ok" {
		t.Fatalf("roomy call = %q, %v", resp, err)
	}
	// No budget at all: full delay, normal call.
	f.RemoveRule(id)
	if resp, err := CallTimeout(ep, "p", "get", nil, 0); err != nil || string(resp) != "ok" {
		t.Fatalf("no-budget call = %q, %v", resp, err)
	}
}
