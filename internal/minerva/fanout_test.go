package minerva

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"iqn/internal/dataset"
	"iqn/internal/transport"
)

// TestFanoutWorkersBoundedAndStopped is the fan-out workers' lifecycle:
// a concurrent burst of searches, far more pulls at once than the pool
// parks, leaves every peer at most maxIdleWorkers parked workers, and
// Network.Close stops all of them — the goroutine count returns to what
// it was before the network was built.
func TestFanoutWorkersBoundedAndStopped(t *testing.T) {
	base := runtime.NumGoroutine()
	corpus := dataset.Generate(dataset.CorpusConfig{NumDocs: 1200, VocabSize: 1000, Seed: 31})
	cols := dataset.AssignSlidingWindow(corpus, 16, 4, 2)
	slow := &slowNet{Network: transport.NewInMem()}
	net, err := BuildNetwork(slow, corpus, cols, Config{SynopsisSeed: 9})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			net.Close()
		}
	}()
	queries := dataset.GenerateQueries(corpus, dataset.QueryConfig{Count: 6, Seed: 31})
	slow.delay.Store(int64(time.Millisecond))
	const searches = 32
	errs := make([]error, searches)
	var wg sync.WaitGroup
	for i := 0; i < searches; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			opts := SearchOptions{K: 10, MergeK: 10, MaxPeers: 6, TopKStreaming: i%2 == 0, ChunkSize: 4}
			_, errs[i] = net.Peers[i%2].Search(queries[i%len(queries)].Terms, opts)
		}(i)
	}
	wg.Wait()
	slow.delay.Store(0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
	}
	for _, p := range net.Peers {
		if idle := p.fan.idle.Load(); idle > maxIdleWorkers {
			t.Fatalf("peer %s keeps %d idle fan-out workers, bound %d", p.name, idle, maxIdleWorkers)
		}
	}
	if net.Peers[0].fan.idle.Load() == 0 {
		t.Fatal("the burst left no fan-out worker parked for the next search")
	}
	net.Close()
	closed = true
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Network.Close, %d before the build:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
