package minerva

import (
	"sync"
	"sync/atomic"
)

// maxIdleWorkers bounds the fan-out workers a peer keeps parked between
// rounds: enough for the concurrent pulls of a few searches at the
// default MaxPeers, few enough that their stacks stay small next to the
// peer's index.
const maxIdleWorkers = 16

// fanout is a peer's pool of fan-out workers: goroutines that each run
// one pull of a forwarding round and then park for the next. A pull on
// an in-process network runs the remote peer's handler on the puller's
// stack, so a worker that lives across rounds and searches keeps the
// stack those handlers grew instead of growing a fresh goroutine's
// stack every round.
//
// A pull goes to a parked worker when one is waiting and to a new worker
// otherwise, so a round never waits behind another search's pulls. A
// worker parks again only while fewer than maxIdleWorkers are parked and
// exits otherwise. close returns once every worker has exited; a pull
// started after close runs on a goroutine of its own.
type fanout struct {
	// jobs is unbuffered: a send succeeds only into a parked worker.
	jobs chan pullJob
	idle atomic.Int32 // workers parked, or about to park, on jobs
	live sync.WaitGroup
	// mu orders every send on jobs and every new worker before close.
	mu     sync.RWMutex
	closed bool
}

// pullJob is pull i of a forwarding round.
type pullJob struct {
	r *forwardRound
	i int
}

// do runs the pull and marks it done in its round.
func (j pullJob) do() {
	j.r.pull(j.i)
	j.r.wg.Done()
}

// run starts pull i of round r.
func (f *fanout) run(r *forwardRound, i int) {
	j := pullJob{r, i}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if f.closed {
		go j.do()
		return
	}
	select {
	case f.jobs <- j:
	default:
		f.live.Add(1)
		go f.work(j)
	}
}

// work runs j, then parks for further pulls until the pool is full or
// closed.
func (f *fanout) work(j pullJob) {
	defer f.live.Done()
	for {
		j.do()
		if f.idle.Add(1) > maxIdleWorkers {
			f.idle.Add(-1)
			return
		}
		var ok bool
		j, ok = <-f.jobs
		f.idle.Add(-1)
		if !ok {
			return
		}
	}
}

// close stops the workers and waits for them to exit; a busy one
// finishes its pull first.
func (f *fanout) close() {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.jobs)
	}
	f.mu.Unlock()
	f.live.Wait()
}
