package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// InMem is the in-process Network: dispatch is a direct function call on
// the destination's Mux, so experiments are fast and fully deterministic.
// It supports the failure injection the churn tests and the directory's
// replica fail-over need: individual addresses can be partitioned off
// without deregistering them.
//
// InMem also meters traffic (calls and payload bytes per method), which
// the benchmark harness reports as the network cost of posting synopses
// and routing queries.
type InMem struct {
	mu          sync.RWMutex
	nodes       map[string]*Mux
	partitioned map[string]bool

	calls     atomic.Int64
	bytesSent atomic.Int64
}

// NewInMem returns an empty in-process network.
func NewInMem() *InMem {
	return &InMem{nodes: make(map[string]*Mux), partitioned: make(map[string]bool)}
}

// Register implements Network.
func (n *InMem) Register(addr string, mux *Mux) (func(), error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[addr]; dup {
		return nil, fmt.Errorf("%w: %s", ErrAddrInUse, addr)
	}
	n.nodes[addr] = mux
	stop := func() {
		n.mu.Lock()
		defer n.mu.Unlock()
		delete(n.nodes, addr)
	}
	return stop, nil
}

// Call implements Caller.
func (n *InMem) Call(addr, method string, req []byte) ([]byte, error) {
	n.mu.RLock()
	mux := n.nodes[addr]
	cut := n.partitioned[addr]
	n.mu.RUnlock()
	if mux == nil || cut {
		return nil, fmt.Errorf("%w: %s", ErrUnreachable, addr)
	}
	n.calls.Add(1)
	n.bytesSent.Add(int64(len(req)))
	resp, err := mux.Dispatch(method, req)
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			// Admission-control rejects keep their retryable identity
			// across the "wire", exactly as TCP's status byte does.
			return nil, fmt.Errorf("%w: %s", ErrOverloaded, addr)
		}
		// Application errors cross the "wire" as RemoteError, exactly as
		// they would over TCP.
		return nil, &RemoteError{Method: method, Msg: err.Error()}
	}
	n.bytesSent.Add(int64(len(resp)))
	return resp, nil
}

// SetPartitioned cuts an address off (true) or reconnects it (false)
// without deregistering its mux — simulating a crashed or unreachable
// peer for fail-over tests.
func (n *InMem) SetPartitioned(addr string, cut bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitioned[addr] = cut
}

// Stats returns the total call count and payload bytes moved since
// creation (requests plus responses).
func (n *InMem) Stats() (calls, bytes int64) {
	return n.calls.Load(), n.bytesSent.Load()
}

// ResetStats zeroes the traffic counters (e.g. between benchmark phases).
func (n *InMem) ResetStats() {
	n.calls.Store(0)
	n.bytesSent.Store(0)
}
