package directory

import (
	"errors"
	"testing"

	"iqn/internal/chord"
	"iqn/internal/transport"
)

// dirMethods is every RPC the directory service registers.
var dirMethods = []string{
	methodPost, methodGet, methodPrune,
	methodHandoff, methodHandoffPush, methodWithdraw,
	methodDigest, methodRepair,
}

// FuzzDirectoryHandlers feeds arbitrary bytes to every directory RPC of
// a one-node service through its mux — the decoders a remote peer can
// reach with a hostile payload. Each call must return an error or a
// response, never panic; the corpus starts from valid encodings of every
// request type.
func FuzzDirectoryHandlers(f *testing.F) {
	post := mkPost("peerA", "fire", 5)
	post.Epoch = 2
	post.Histogram = []HistCell{{Lo: 0, Hi: 1, Count: 2, Synopsis: post.Synopsis}}
	for _, req := range []any{
		[]Post{post},                         // dir.post
		[]string{"fire", "ice"},              // dir.get
		int64(3),                             // dir.prune
		handoffRequest{From: 1, To: 1 << 60}, // dir.handoff
		handoffPush{Posts: []Post{post}, Floor: 1},
		withdrawRequest{Peer: "peerA", Terms: []string{"fire"}},
		"fire", // dir.digest
		repairRequest{Term: "fire", Posts: PeerList{post}, Floor: 1},
	} {
		data, err := transport.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		node, err := chord.New("fuzz-dir", transport.NewInMem(), chord.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		NewService(node)
		for _, m := range dirMethods {
			resp, err := node.Mux().Dispatch(m, data)
			if errors.Is(err, transport.ErrNoMethod) {
				t.Fatalf("%s is not registered", m)
			}
			if err == nil && resp == nil {
				t.Fatalf("%s returned neither a response nor an error", m)
			}
		}
	})
}
