package chord

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"iqn/internal/transport"
)

// callerFunc adapts a function to transport.Caller.
type callerFunc func(addr, method string, req []byte) ([]byte, error)

func (f callerFunc) Call(addr, method string, req []byte) ([]byte, error) {
	return f(addr, method, req)
}

// TestLookupRetriesOverloadedHop saturates one node's mux (one in-flight
// slot, held by a blocked call, no queue) on a two-node ring and walks a
// lookup through it: the initiator's only successor is the busy node, so
// avoiding it leaves no route at all. One fast reject is retried and the
// lookup completes; a node that rejects the retry too is avoided, and
// the failed lookup still matches transport.ErrOverloaded.
func TestLookupRetriesOverloadedHop(t *testing.T) {
	for _, rejects := range []int{1, 2} {
		t.Run(fmt.Sprintf("rejects=%d", rejects), func(t *testing.T) {
			net := transport.NewInMem()
			nodes := make([]*Node, 2)
			for i := range nodes {
				node, err := New(fmt.Sprintf("ovl-%02d", i), net, Config{})
				if err != nil {
					t.Fatal(err)
				}
				defer node.Close()
				nodes[i] = node
			}
			nodes[0].Create()
			if err := nodes[1].Join(nodes[0].Self().Addr); err != nil {
				t.Fatal(err)
			}
			stabilizeAll(nodes)
			a, b := nodes[0], nodes[1]
			// A key a owns but cannot place itself: a's walk must ask b
			// for b's successor.
			key := ID(0)
			for i := 0; ; i++ {
				key = HashKey(fmt.Sprint("ovl-key-", i))
				if between(b.Self().ID, key, a.Self().ID) {
					break
				}
			}

			entered, release := make(chan struct{}), make(chan struct{})
			b.Mux().Handle("test.hold", func([]byte) ([]byte, error) {
				close(entered)
				<-release
				return nil, nil
			})
			b.Mux().SetLimit(1, 0)
			var held sync.WaitGroup
			held.Add(1)
			go func() {
				defer held.Done()
				if _, err := net.Call(b.Self().Addr, "test.hold", nil); err != nil {
					t.Error(err)
				}
			}()
			<-entered
			free := func() {
				close(release)
				held.Wait()
			}

			var rejected int
			a.SetCaller(callerFunc(func(addr, method string, req []byte) ([]byte, error) {
				resp, err := net.Call(addr, method, req)
				if errors.Is(err, transport.ErrOverloaded) {
					if rejected++; rejected == rejects {
						free() // the mux has a free slot from here on
					}
				}
				return resp, err
			}))

			got, err := a.FindSuccessor(key)
			if rejected != rejects {
				t.Fatalf("the saturated mux rejected %d calls, want %d", rejected, rejects)
			}
			if rejects == 1 {
				if err != nil {
					t.Fatalf("lookup through a node that rejected one hop: %v", err)
				}
				if got.Addr != a.Self().Addr {
					t.Fatalf("lookup = %s, want %s", got, a.Self())
				}
				return
			}
			if err == nil {
				t.Fatalf("lookup through a node that rejected the hop and its retry = %s, want an error", got)
			}
			if !errors.Is(err, transport.ErrOverloaded) || !errors.Is(err, ErrNotFound) {
				t.Fatalf("failed lookup %v does not wrap the overloaded hop", err)
			}
		})
	}
}
