package transport

import (
	"errors"
	"testing"
	"time"
)

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{ErrUnreachable, true},
		{errors.New("wrapped: " + ErrUnreachable.Error()), false}, // textual match is not enough
		{&RemoteError{Method: "m", Msg: "boom"}, false},
		{ErrTimeout, true}, // timeouts count as unreachable
		{ErrNoMethod, false},
	}
	for i, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("case %d: Retryable(%v) = %v, want %v", i, c.err, got, c.want)
		}
	}
	// Wrapped forms classify like their base.
	if !Retryable(errors.Join(errors.New("ctx"), ErrUnreachable)) {
		t.Error("wrapped ErrUnreachable not retryable")
	}
}

func TestErrTimeoutMatchesUnreachable(t *testing.T) {
	if !errors.Is(ErrTimeout, ErrUnreachable) {
		t.Fatal("ErrTimeout does not match ErrUnreachable")
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Jitter: 0.5, Seed: 42}
	for attempt := 1; attempt <= 9; attempt++ {
		a := p.Backoff("peer-1", attempt)
		b := p.Backoff("peer-1", attempt)
		if a != b {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, a, b)
		}
		if a > p.MaxDelay {
			t.Fatalf("attempt %d: backoff %v exceeds cap %v", attempt, a, p.MaxDelay)
		}
		// Jitter only shrinks, never below (1-Jitter) of the nominal value.
		nominal := p.BaseDelay << (attempt - 1)
		if nominal > p.MaxDelay || nominal <= 0 {
			nominal = p.MaxDelay
		}
		if a < time.Duration(float64(nominal)*(1-p.Jitter)) {
			t.Fatalf("attempt %d: backoff %v below jitter floor of %v", attempt, a, nominal)
		}
	}
	// Different keys draw different jitter (decorrelated retry storms).
	same := 0
	for attempt := 1; attempt <= 8; attempt++ {
		if p.Backoff("peer-1", attempt) == p.Backoff("peer-2", attempt) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("jitter identical across keys — not decorrelated")
	}
	// Huge attempt numbers must not overflow into negative durations.
	if d := p.Backoff("peer-1", 200); d <= 0 || d > p.MaxDelay {
		t.Fatalf("Backoff(200) = %v", d)
	}
}

func TestRetryPolicyZeroValueSingleAttempt(t *testing.T) {
	var p RetryPolicy
	calls := 0
	attempts, err := p.Do("k", func() error { calls++; return ErrUnreachable })
	if calls != 1 || attempts != 1 {
		t.Fatalf("zero policy made %d calls (%d attempts)", calls, attempts)
	}
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
}

func TestRetryDoRetriesOnlyRetryable(t *testing.T) {
	var slept []time.Duration
	p := RetryPolicy{MaxAttempts: 4, Sleep: func(d time.Duration) { slept = append(slept, d) }}
	// Retryable error: exhausts attempts.
	calls := 0
	attempts, err := p.Do("k", func() error { calls++; return ErrUnreachable })
	if calls != 4 || attempts != 4 || !errors.Is(err, ErrUnreachable) {
		t.Fatalf("retryable: calls=%d attempts=%d err=%v", calls, attempts, err)
	}
	if len(slept) != 3 {
		t.Fatalf("backoffs between 4 attempts = %d", len(slept))
	}
	// Non-retryable error: single attempt.
	calls = 0
	attempts, err = p.Do("k", func() error { calls++; return &RemoteError{Method: "m", Msg: "app"} })
	if calls != 1 || attempts != 1 {
		t.Fatalf("non-retryable: calls=%d attempts=%d", calls, attempts)
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v", err)
	}
	// Success after transient failures: stops early, nil error.
	calls = 0
	attempts, err = p.Do("k", func() error {
		calls++
		if calls < 3 {
			return ErrUnreachable
		}
		return nil
	})
	if calls != 3 || attempts != 3 || err != nil {
		t.Fatalf("recovery: calls=%d attempts=%d err=%v", calls, attempts, err)
	}
}

func TestCallTimeout(t *testing.T) {
	n := NewInMem()
	m := NewMux()
	block := make(chan struct{})
	m.Handle("slow", func([]byte) ([]byte, error) {
		<-block
		return []byte("late"), nil
	})
	m.Handle("fast", func([]byte) ([]byte, error) { return []byte("ok"), nil })
	if _, err := n.Register("s", m); err != nil {
		t.Fatal(err)
	}
	defer close(block)
	// Fast call inside the deadline.
	resp, err := CallTimeout(n, "s", "fast", nil, time.Second)
	if err != nil || string(resp) != "ok" {
		t.Fatalf("fast call = %q, %v", resp, err)
	}
	// Slow call exceeds the deadline: ErrTimeout, which is retryable.
	_, err = CallTimeout(n, "s", "slow", nil, 20*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("slow call = %v", err)
	}
	if !Retryable(err) {
		t.Fatal("timeout not retryable")
	}
	// d <= 0 disables the deadline entirely.
	resp, err = CallTimeout(n, "s", "fast", nil, 0)
	if err != nil || string(resp) != "ok" {
		t.Fatalf("no-deadline call = %q, %v", resp, err)
	}
}

// TestInvokeRetryRecovers registers a peer whose link drops the first two
// calls and verifies Method.Call reports three attempts and the decoded
// response.
func TestInvokeRetryRecovers(t *testing.T) {
	f := NewFaulty(NewInMem(), 7)
	m := NewMux()
	pongRPC.Handle(m, pong)
	if _, err := f.Register("p", m); err != nil {
		t.Fatal(err)
	}
	id := f.AddRule(Rule{To: "p", Drop: 1})
	p := RetryPolicy{MaxAttempts: 5, Sleep: func(time.Duration) {
		// Heal the link after the second failed attempt.
		if len(f.Schedule()) == 2 {
			f.RemoveRule(id)
		}
	}}
	out, attempts, err := pongRPC.Call(f, "p", struct{}{}, p)
	if err != nil || out != "pong" {
		t.Fatalf("Call = %q, %v", out, err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	// Exhausted retries surface the final connectivity error and the
	// attempt count.
	f.AddRule(Rule{To: "p", Drop: 1})
	_, attempts, err = pongRPC.Call(f, "p", struct{}{}, RetryPolicy{MaxAttempts: 2, Sleep: func(time.Duration) {}})
	if !errors.Is(err, ErrUnreachable) || attempts != 2 {
		t.Fatalf("exhausted: attempts=%d err=%v", attempts, err)
	}
}
