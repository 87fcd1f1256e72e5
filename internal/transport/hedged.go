package transport

import (
	"fmt"
	"time"

	"iqn/internal/telemetry"
)

// Hedged runs one idempotent read across a replica set, in replica
// order: the first address is tried first, and a failed leg starts the
// next replica at once. With Delay > 0 the next replica also starts
// whenever the newest leg has not answered within Delay — the classic
// tail-at-scale hedge, where one slow replica costs Delay, not its full
// latency. The first success wins; answers arriving after it are
// discarded. With Delay ≤ 0 the legs run one at a time on the caller's
// goroutine (plain in-order fail-over, no goroutine, channel or timer).
//
// Hedging duplicates work by design; reserve it for idempotent reads
// (directory PeerList fetches are — the same terms read from any
// replica) and bound the blast radius by the addresses passed in.
type Hedged[T any] struct {
	// Delay is how long the newest leg may stay unanswered before the
	// next replica is started alongside it (≤ 0: never — fail-over only).
	Delay time.Duration
	// Hedges, when set, counts legs the delay started while an earlier
	// leg was still in flight (duplicate work the hedge spent);
	// HedgeWins counts races such a leg won (tail latency the hedge
	// saved). Both tolerate nil — unset means uncounted.
	Hedges    *telemetry.Counter
	HedgeWins *telemetry.Counter
}

// Call runs leg against addrs in order under the hedging rule and
// returns the first successful response along with the address that
// served it. failed, when non-nil, is told about every failed leg Call
// waited for, on the caller's goroutine. When every leg fails the last
// error is returned; no addresses at all is ErrUnreachable.
func (h Hedged[T]) Call(addrs []string, leg func(addr string) (T, error), failed func(addr string, err error)) (resp T, winner string, err error) {
	if failed == nil {
		failed = func(string, error) {}
	}
	if len(addrs) == 0 {
		return resp, "", fmt.Errorf("%w: hedged call with no addresses", ErrUnreachable)
	}
	if h.Delay <= 0 {
		for _, addr := range addrs {
			if resp, err = leg(addr); err == nil {
				return resp, addr, nil
			}
			failed(addr, err)
		}
		var zero T
		return zero, "", err
	}
	return h.race(addrs, leg, failed)
}

// race is Call with Delay > 0: legs run on their own goroutines so a
// slow one can be overtaken. Abandoned legs complete on their own and
// are discarded.
func (h Hedged[T]) race(addrs []string, leg func(addr string) (T, error), failed func(addr string, err error)) (T, string, error) {
	type outcome struct {
		i     int
		hedge bool
		resp  T
		err   error
	}
	ch := make(chan outcome, len(addrs))
	var timer *time.Timer
	var tick <-chan time.Time
	launched, settled := 0, 0
	launch := func(hedge bool) {
		i := launched
		launched++
		if hedge {
			h.Hedges.Inc()
		}
		go func() {
			resp, err := leg(addrs[i])
			ch <- outcome{i: i, hedge: hedge, resp: resp, err: err}
		}()
		if timer != nil {
			timer.Stop()
		}
		tick = nil
		if launched < len(addrs) {
			timer = time.NewTimer(h.Delay)
			tick = timer.C
		}
	}
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	launch(false)
	var lastErr error
	for {
		select {
		case o := <-ch:
			settled++
			if o.err == nil {
				if o.hedge {
					h.HedgeWins.Inc()
				}
				return o.resp, addrs[o.i], nil
			}
			failed(addrs[o.i], o.err)
			lastErr = o.err
			if launched < len(addrs) {
				launch(false)
			} else if settled == launched {
				var zero T
				return zero, "", lastErr
			}
		case <-tick:
			launch(true)
		}
	}
}
