package transport

import (
	"errors"
	"fmt"
	"time"
)

// ErrTimeout reports a call abandoned because its per-call deadline
// expired. It matches ErrUnreachable under errors.Is, because callers
// handle the two identically (the peer did not answer in time), while
// still being distinguishable for diagnostics.
var ErrTimeout = &timeoutError{}

type timeoutError struct{}

func (*timeoutError) Error() string        { return "transport: call timed out" }
func (*timeoutError) Is(target error) bool { return target == ErrUnreachable }

// Retryable classifies an error for retry purposes: connectivity
// failures (ErrUnreachable, including timeouts and open breakers) are
// worth retrying — the peer may answer on the next attempt or a replica
// can take over — and so are admission-control rejects (ErrOverloaded:
// the peer is alive but shedding load; back off and try again). Remote
// application errors (*RemoteError, which includes unknown methods) are
// deterministic and are not.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	return errors.Is(err, ErrUnreachable) || errors.Is(err, ErrOverloaded)
}

// DeadlineCaller is implemented by callers that can bound a call
// natively (TCP abandons the call's request slot at the deadline;
// wrappers like Faulty and Breakers forward it). When available,
// CallTimeout delegates here instead of abandoning the call on a
// goroutine, so a timed-out call can never re-send its request after
// the caller has given up.
type DeadlineCaller interface {
	// CallDeadline is Call bounded by d; on expiry it returns an error
	// matching ErrTimeout (and therefore ErrUnreachable). d ≤ 0 means no
	// deadline.
	CallDeadline(addr, method string, req []byte, d time.Duration) ([]byte, error)
}

// CallTimeout issues a call with a deadline. Deadline-capable transports
// (DeadlineCaller) enforce it natively; otherwise, when the transport
// does not answer within d, the call is abandoned and ErrTimeout
// returned (the in-flight call finishes on its own goroutine and is
// discarded). d ≤ 0 calls synchronously with no deadline.
func CallTimeout(c Caller, addr, method string, req []byte, d time.Duration) ([]byte, error) {
	if d <= 0 {
		return c.Call(addr, method, req)
	}
	if dc, ok := c.(DeadlineCaller); ok {
		return dc.CallDeadline(addr, method, req, d)
	}
	return callTimeoutRace(c, addr, method, req, d)
}

// callTimeoutRace is the generic (abandon-on-a-goroutine) deadline
// fallback for transports without native deadline support.
func callTimeoutRace(c Caller, addr, method string, req []byte, d time.Duration) ([]byte, error) {
	type outcome struct {
		resp []byte
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		resp, err := c.Call(addr, method, req)
		ch <- outcome{resp, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.resp, out.err
	case <-timer.C:
		return nil, fmt.Errorf("%w: %s %s after %v", ErrTimeout, addr, method, d)
	}
}

// RetryPolicy is a capped-exponential-backoff retry schedule with
// deterministic jitter. The zero value means "one attempt, no timeout,
// no backoff" — exactly the pre-retry behavior — so it can be embedded
// in options structs without changing defaults.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (≤ 0 or 1: no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it (default 5ms when MaxAttempts > 1).
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 250ms when MaxAttempts > 1).
	MaxDelay time.Duration
	// Jitter is the fraction of each backoff drawn uniformly at random
	// (0.2 = ±nothing, backoff ∈ [0.8b, b]); it decorrelates retry
	// storms. The draw is a pure function of Seed, the call key, and the
	// attempt number, so schedules replay deterministically.
	Jitter float64
	// Timeout bounds each attempt (0: no per-attempt deadline).
	Timeout time.Duration
	// Seed feeds the jitter PRF.
	Seed int64
	// Sleep replaces time.Sleep between attempts (tests use a recording
	// no-op). Nil means time.Sleep.
	Sleep func(time.Duration)
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

func (p RetryPolicy) base() time.Duration {
	if p.BaseDelay <= 0 {
		return 5 * time.Millisecond
	}
	return p.BaseDelay
}

func (p RetryPolicy) cap() time.Duration {
	if p.MaxDelay <= 0 {
		return 250 * time.Millisecond
	}
	return p.MaxDelay
}

// Backoff returns the pause before attempt number `attempt` (1-based:
// Backoff(1) precedes the first retry) for the given call key. The
// exponential is capped at MaxDelay and shrunk by up to Jitter
// deterministically.
func (p RetryPolicy) Backoff(key string, attempt int) time.Duration {
	if attempt < 1 {
		attempt = 1
	}
	d := p.base() << (attempt - 1)
	if d > p.cap() || d <= 0 { // d ≤ 0: shift overflow
		d = p.cap()
	}
	if p.Jitter > 0 {
		// splitmix64 over (seed, key, attempt): stateless, so concurrent
		// retries to different peers cannot perturb each other's
		// schedules.
		x := uint64(linkSeed(p.Seed, key)) + uint64(attempt)*0x9E3779B97F4A7C15
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
		u := float64(x>>11) / (1 << 53)
		frac := 1 - p.Jitter*u
		d = time.Duration(float64(d) * frac)
	}
	return d
}

// Within returns the policy with its per-attempt Timeout capped by a
// caller's remaining budget (budget ≤ 0: unchanged).
func (p RetryPolicy) Within(budget time.Duration) RetryPolicy {
	if budget > 0 && (p.Timeout <= 0 || p.Timeout > budget) {
		p.Timeout = budget
	}
	return p
}

// Do runs op under the policy: up to MaxAttempts attempts, backing off
// between them, retrying only Retryable errors. It returns the number of
// attempts made and the last error (nil on success).
func (p RetryPolicy) Do(key string, op func() error) (attempts int, err error) {
	sleep := p.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	max := p.attempts()
	for attempt := 1; ; attempt++ {
		err = op()
		if err == nil || !Retryable(err) || attempt >= max {
			return attempt, err
		}
		sleep(p.Backoff(key, attempt))
	}
}
