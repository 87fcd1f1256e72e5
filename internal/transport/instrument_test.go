package transport

import (
	"errors"
	"testing"
	"time"

	"iqn/internal/telemetry"
)

func newEchoNet(t testing.TB) *InMem {
	t.Helper()
	net := NewInMem()
	mux := NewMux()
	mux.Handle("echo", func(req []byte) ([]byte, error) { return req, nil })
	mux.Handle("boom", func(req []byte) ([]byte, error) { return nil, errors.New("boom") })
	if _, err := net.Register("a", mux); err != nil {
		t.Fatal(err)
	}
	return net
}

func TestInstrumentCounts(t *testing.T) {
	net := newEchoNet(t)
	r := telemetry.NewRegistry()
	in := Instrument(net, r)

	if _, err := in.Call("a", "echo", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Call("a", "boom", []byte("xx")); err == nil {
		t.Fatal("boom should fail")
	}
	if _, err := in.Call("missing", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("missing addr: %v", err)
	}

	s := r.Snapshot()
	if s.Counters["transport.calls"] != 3 {
		t.Fatalf("calls = %d, want 3", s.Counters["transport.calls"])
	}
	if s.Counters["transport.call_errors"] != 2 {
		t.Fatalf("errors = %d, want 2", s.Counters["transport.call_errors"])
	}
	if s.Counters["transport.bytes_out"] != 7 {
		t.Fatalf("bytes_out = %d, want 7", s.Counters["transport.bytes_out"])
	}
	if s.Counters["transport.bytes_in"] != 5 {
		t.Fatalf("bytes_in = %d, want 5", s.Counters["transport.bytes_in"])
	}
	if s.Histograms["transport.call_ms"].Count != 3 {
		t.Fatalf("latency observations = %d, want 3", s.Histograms["transport.call_ms"].Count)
	}
}

func TestInstrumentCallDeadline(t *testing.T) {
	net := newEchoNet(t)
	r := telemetry.NewRegistry()
	in := Instrument(net, r)
	dc, ok := in.(DeadlineCaller)
	if !ok {
		t.Fatal("instrumented network must implement DeadlineCaller")
	}
	if _, err := dc.CallDeadline("a", "echo", []byte("hi"), 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := r.Snapshot().Counters["transport.calls"]; got != 1 {
		t.Fatalf("calls = %d, want 1", got)
	}
}

// The disabled path IS the raw network: Instrument with a nil registry
// must return its argument unchanged, so telemetry off adds zero work
// and zero allocations to the transport call path.
func TestInstrumentNilRegistryIsIdentity(t *testing.T) {
	net := newEchoNet(t)
	if got := Instrument(net, nil); got != Network(net) {
		t.Fatal("Instrument(net, nil) must return net unchanged")
	}
}

func TestInstrumentDisabledAddsNoAllocations(t *testing.T) {
	net := newEchoNet(t)
	payload := []byte("x")
	bare := testing.AllocsPerRun(200, func() { net.Call("a", "echo", payload) })
	wrapped := Instrument(net, nil)
	instr := testing.AllocsPerRun(200, func() { wrapped.Call("a", "echo", payload) })
	if instr > bare {
		t.Fatalf("disabled telemetry allocates: bare %.1f vs instrumented %.1f per call", bare, instr)
	}
}

// BenchmarkCallDisabledTelemetry is the transport-path half of the CI
// telemetry-overhead smoke: with telemetry disabled the call path must
// allocate exactly as much as the bare network (see the bare benchmark
// below for the baseline).
func BenchmarkCallDisabledTelemetry(b *testing.B) {
	net := newEchoNet(b)
	c := Instrument(net, nil)
	payload := []byte("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Call("a", "echo", payload)
	}
}

func BenchmarkCallBare(b *testing.B) {
	net := newEchoNet(b)
	payload := []byte("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Call("a", "echo", payload)
	}
}

func BenchmarkCallEnabledTelemetry(b *testing.B) {
	net := newEchoNet(b)
	c := Instrument(net, telemetry.NewRegistry())
	payload := []byte("x")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Call("a", "echo", payload)
	}
}

func TestHedgedCounters(t *testing.T) {
	net := NewInMem()
	slowMux := NewMux()
	slowMux.Handle("get", func(req []byte) ([]byte, error) {
		time.Sleep(50 * time.Millisecond)
		return []byte("slow"), nil
	})
	fastMux := NewMux()
	fastMux.Handle("get", func(req []byte) ([]byte, error) { return []byte("fast"), nil })
	if _, err := net.Register("slow", slowMux); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Register("fast", fastMux); err != nil {
		t.Fatal(err)
	}

	r := telemetry.NewRegistry()
	h := Hedged[[]byte]{
		Delay:     time.Millisecond,
		Hedges:    r.Counter("transport.hedges"),
		HedgeWins: r.Counter("transport.hedge_wins"),
	}
	leg := func(addr string) ([]byte, error) { return net.Call(addr, "get", nil) }
	resp, winner, err := h.Call([]string{"slow", "fast"}, leg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if winner != "fast" || string(resp) != "fast" {
		t.Fatalf("winner = %s (%q), want fast", winner, resp)
	}
	s := r.Snapshot()
	if s.Counters["transport.hedges"] != 1 {
		t.Fatalf("hedges = %d, want 1", s.Counters["transport.hedges"])
	}
	if s.Counters["transport.hedge_wins"] != 1 {
		t.Fatalf("hedge_wins = %d, want 1", s.Counters["transport.hedge_wins"])
	}
}

func TestBreakerMetrics(t *testing.T) {
	r := telemetry.NewRegistry()
	set := NewBreakers(BreakerConfig{FailureThreshold: 2, ProbeAfter: 1})
	set.SetMetrics(r)
	b := set.For("p1")
	b.Record(ErrUnreachable)
	b.Record(ErrUnreachable) // trips closed->open
	if !b.Allow() {          // grants the half-open probe (open->half-open)
		t.Fatal("probe should be granted after ProbeAfter=1 reject")
	}
	b.Record(nil) // probe success: half-open->closed
	s := r.Snapshot()
	if s.Counters["transport.breaker_opens"] != 1 {
		t.Fatalf("opens = %d, want 1", s.Counters["transport.breaker_opens"])
	}
	if s.Counters["transport.breaker_transitions"] != 3 {
		t.Fatalf("transitions = %d, want 3", s.Counters["transport.breaker_transitions"])
	}
}
