package transport

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// raiseGOMAXPROCS lifts the scheduler width for the duration of a test so
// concurrency stress actually fans out even on single-CPU machines — the
// race detector needs the goroutines to exist, not physical cores.
func raiseGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestMuxConcurrentRegisterDispatch hammers one Mux with concurrent
// Handle registrations, re-registrations, and Dispatch calls. Run under
// -race (verify.sh does) this is the data-race certificate for the
// registration/dispatch paths.
func TestMuxConcurrentRegisterDispatch(t *testing.T) {
	raiseGOMAXPROCS(t, 8)
	m := NewMux()
	const methods = 16
	var dispatched atomic.Int64
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	// Writers: register and re-register handlers while dispatch runs.
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for gen := 0; ; gen++ {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < methods; i++ {
					method := fmt.Sprintf("m%d", i)
					reply := []byte(fmt.Sprintf("w%d-g%d", w, gen))
					m.Handle(method, func([]byte) ([]byte, error) {
						return reply, nil
					})
				}
			}
		}(w)
	}
	// Readers: dispatch to every method, known and unknown.
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for round := 0; round < 500; round++ {
				method := fmt.Sprintf("m%d", (r+round)%methods)
				resp, err := m.Dispatch(method, nil)
				if err != nil {
					// Only the not-yet-registered window may error.
					if !errors.Is(err, ErrNoMethod) {
						t.Errorf("Dispatch(%s) = %v", method, err)
						return
					}
					continue
				}
				if len(resp) == 0 {
					t.Errorf("Dispatch(%s) returned empty reply", method)
					return
				}
				dispatched.Add(1)
				if _, err := m.Dispatch("never-registered", nil); !errors.Is(err, ErrNoMethod) {
					t.Errorf("unknown method error = %v", err)
					return
				}
			}
		}(r)
	}
	// Writers churn registrations until every reader has finished its
	// rounds, so dispatch always races live re-registrations.
	readers.Wait()
	close(stop)
	writers.Wait()
	if dispatched.Load() == 0 {
		t.Fatal("no successful dispatches under contention")
	}
}

// TestTCPConcurrentCallDeadlineStress hammers one TCP peer with many
// goroutines mixing fast echoes and deliberately-too-slow calls with tiny
// deadlines, all sharing the multiplexed connection. Under -race this is
// the data-race certificate for the pending-call table: timed-out slots
// are abandoned and recycled while deliveries for other IDs race in.
func TestTCPConcurrentCallDeadlineStress(t *testing.T) {
	raiseGOMAXPROCS(t, 8)
	tr := NewTCP()
	defer tr.CloseIdle()
	m := NewMux()
	m.Handle("echo", func(req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	m.Handle("slow", func(req []byte) ([]byte, error) {
		time.Sleep(40 * time.Millisecond)
		return req, nil
	})
	addr := freeAddr(t)
	stop, err := tr.Register(addr, m)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	const workers = 16
	const rounds = 60
	var echoOK, timeouts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if (w+i)%4 == 0 {
					// Doomed call: 40ms handler, 5ms budget.
					_, err := CallTimeout(tr, addr, "slow", []byte("s"), 5*time.Millisecond)
					if err == nil {
						t.Errorf("w%d r%d: slow call beat a 5ms deadline", w, i)
						return
					}
					if !errors.Is(err, ErrTimeout) {
						t.Errorf("w%d r%d: slow call = %v, want ErrTimeout", w, i, err)
						return
					}
					timeouts.Add(1)
					continue
				}
				msg := fmt.Sprintf("w%d-r%d", w, i)
				resp, err := tr.Call(addr, "echo", []byte(msg))
				if err != nil {
					t.Errorf("w%d r%d: echo: %v", w, i, err)
					return
				}
				if string(resp) != "echo:"+msg {
					t.Errorf("w%d r%d: cross-wired response %q", w, i, resp)
					return
				}
				echoOK.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if echoOK.Load() == 0 || timeouts.Load() == 0 {
		t.Fatalf("stress did not exercise both paths: %d echoes, %d timeouts",
			echoOK.Load(), timeouts.Load())
	}
	// After the storm the shared connection must still serve cleanly.
	resp, err := tr.Call(addr, "echo", []byte("calm"))
	if err != nil || string(resp) != "echo:calm" {
		t.Fatalf("post-stress call = %q, %v", resp, err)
	}
}

// TestInMemConcurrentRegisterCall races peer registration/deregistration
// against calls on an InMem network — the transport-level analogue of the
// Mux stress, under -race.
func TestInMemConcurrentRegisterCall(t *testing.T) {
	raiseGOMAXPROCS(t, 8)
	n := NewInMem()
	const peers = 8
	var wg sync.WaitGroup
	// Churners: register and deregister their peer in a loop.
	for p := 0; p < peers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			addr := fmt.Sprintf("peer-%d", p)
			for i := 0; i < 100; i++ {
				stop, err := n.Register(addr, echoMux())
				if err != nil {
					t.Errorf("register %s: %v", addr, err)
					return
				}
				if _, err := n.Call(addr, "echo", []byte("self")); err != nil {
					t.Errorf("self call %s: %v", addr, err)
					stop()
					return
				}
				stop()
			}
		}(p)
	}
	// Callers: fire at random peers; unreachable is legal mid-churn,
	// anything else is not.
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				addr := fmt.Sprintf("peer-%d", (c+i)%peers)
				_, err := n.Call(addr, "echo", []byte("x"))
				if err != nil && !errors.Is(err, ErrUnreachable) {
					t.Errorf("call %s: %v", addr, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}
