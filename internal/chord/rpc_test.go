package chord

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"iqn/internal/transport"
)

// codec is the type-erased view of one table method the tests walk:
// each function decodes a frame and, when it is accepted, re-encodes the
// decoded value.
type codec struct {
	name         string
	reencodeReq  func([]byte) ([]byte, error)
	reencodeResp func([]byte) ([]byte, error)
	req, resp    []byte // one valid request and response frame
}

func codecOf[Req, Resp any](m *transport.Method[Req, Resp], req Req, resp Resp) codec {
	return codec{
		name: m.Name,
		reencodeReq: func(b []byte) ([]byte, error) {
			v, err := m.DecodeRequest(b)
			if err != nil {
				return nil, err
			}
			return m.EncodeRequest(v), nil
		},
		reencodeResp: func(b []byte) ([]byte, error) {
			v, err := m.DecodeResponse(b)
			if err != nil {
				return nil, err
			}
			return m.EncodeResponse(v), nil
		},
		req:  m.EncodeRequest(req),
		resp: m.EncodeResponse(resp),
	}
}

// chordCodecs is every Chord method with a valid sample of each frame.
func chordCodecs() []codec {
	a := NodeRef{ID: HashAddr("a"), Addr: "a"}
	b := NodeRef{ID: 1, Addr: "mem://b"}
	return []codec{
		codecOf(&findSuccessorRPC, a.ID, b),
		codecOf(&closestPrecedingRPC, ID(math.MaxUint64), a),
		codecOf(&getPredecessorRPC, none, NodeRef{}),
		codecOf(&notifyRPC, a, true),
		codecOf(&successorsRPC, none, []NodeRef{a, b}),
		codecOf(&pingRPC, none, true),
		codecOf(&leaveRPC, leaveNotice{Departing: a, Pred: b, Succs: []NodeRef{b, a}}, true),
	}
}

// checkChordFrame feeds one frame to every Chord handler of a one-node
// mux and to every method's decoders: a handler answers or errors, never
// panics, and any frame a decoder accepts re-encodes to the same bytes.
func checkChordFrame(t *testing.T, node *Node, codecs []codec, data []byte) {
	t.Helper()
	for _, c := range codecs {
		resp, err := node.Mux().Dispatch(c.name, data)
		if errors.Is(err, transport.ErrNoMethod) {
			t.Fatalf("%s is not registered", c.name)
		}
		if err == nil && resp == nil {
			t.Fatalf("%s returned neither a response nor an error", c.name)
		}
		for _, reencode := range []func([]byte) ([]byte, error){c.reencodeReq, c.reencodeResp} {
			if out, err := reencode(data); err == nil && !bytes.Equal(out, data) {
				t.Fatalf("%s: accepted frame re-encodes differently:\n in % x\nout % x", c.name, data, out)
			}
		}
	}
}

// FuzzChordHandlers feeds arbitrary bytes to every Chord RPC of a
// one-node ring through its mux — the decoders a remote peer can reach
// with a hostile payload — and through every method's decoders, which
// must re-encode whatever they accept byte for byte. The corpus starts
// from valid frames of every request and response.
func FuzzChordHandlers(f *testing.F) {
	codecs := chordCodecs()
	for _, c := range codecs {
		f.Add(c.req)
		f.Add(c.resp)
	}
	f.Add(readGolden(f, "testdata/find_successor_reply_v1.hex"))
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0x80, 0x80, 0x80, 0x01}) // a count of 1<<21
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		node, err := New("fuzz-chord", transport.NewInMem(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		checkChordFrame(t, node, codecs, data)
	})
}

// TestChordMethodTableReencodes runs every truncation and single-byte
// corruption of every Chord sample frame through checkChordFrame.
func TestChordMethodTableReencodes(t *testing.T) {
	node, err := New("table", transport.NewInMem(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	codecs := chordCodecs()
	for _, c := range codecs {
		for _, frame := range [][]byte{c.req, c.resp} {
			for n := 0; n <= len(frame); n++ {
				checkChordFrame(t, node, codecs, frame[:n])
			}
			for i := range frame {
				for _, x := range []byte{0x00, 0x01, 0x7f, 0x80, 0xff} {
					mut := append([]byte(nil), frame...)
					mut[i] = x
					checkChordFrame(t, node, codecs, mut)
				}
			}
		}
	}
	// A lying count is rejected before the list is allocated: a failed
	// decode costs bytes on the order of the frame, not of the claim.
	lie := []byte{1, 0, 0, 0x80, 0x20} // 4,096 refs claimed, none present
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		if _, err := successorsRPC.DecodeResponse(lie); err == nil {
			t.Fatal("a successor list of 4,096 refs in no bytes was accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
		t.Fatalf("rejecting a lying count allocated %d bytes per decode", per)
	}
}

// TestChordFramesMatchGob is the oracle property: for seeded random
// node references, successor lists and leave notices, the frame round
// trip equals the gob round trip the frames replaced, nil-for-empty
// included.
func TestChordFramesMatchGob(t *testing.T) {
	r := rand.New(rand.NewPCG(2006, 35))
	ref := func() NodeRef {
		addrs := [...]string{"", "node-07", "127.0.0.1:9000", "ß\x00"}
		ids := [...]ID{0, 1, math.MaxUint64, ID(r.Uint64())}
		return NodeRef{ID: ids[r.IntN(4)], Addr: addrs[r.IntN(4)]}
	}
	refs := func() []NodeRef {
		switch n := r.IntN(6); n {
		case 0:
			return nil
		case 1:
			return []NodeRef{}
		default:
			out := make([]NodeRef, n-1)
			for i := range out {
				out[i] = ref()
			}
			return out
		}
	}
	for i := 0; i < 300; i++ {
		gobOracle(t, "find_successor reply", ref(), findSuccessorRPC.EncodeResponse, findSuccessorRPC.DecodeResponse)
		gobOracle(t, "notify request", ref(), notifyRPC.EncodeRequest, notifyRPC.DecodeRequest)
		gobOracle(t, "find_successor request", ref().ID, findSuccessorRPC.EncodeRequest, findSuccessorRPC.DecodeRequest)
		gobOracle(t, "successors reply", refs(), successorsRPC.EncodeResponse, successorsRPC.DecodeResponse)
		gobOracle(t, "leave request", leaveNotice{Departing: ref(), Pred: ref(), Succs: refs()},
			leaveRPC.EncodeRequest, leaveRPC.DecodeRequest)
		gobOracle(t, "ping reply", r.IntN(2) == 0, pingRPC.EncodeResponse, pingRPC.DecodeResponse)
	}
}

func gobOracle[T any](t *testing.T, what string, v T, encode func(T) []byte, decode func([]byte) (T, error)) {
	t.Helper()
	got, err := decode(encode(v))
	if err != nil {
		t.Fatalf("%s: frame decode: %v\nvalue %+v", what, err, v)
	}
	raw, err := transport.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var want T
	if err := transport.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: frame and gob decodes differ:\nframe %#v\n  gob %#v", what, got, want)
	}
}

func readGolden(tb testing.TB, path string) []byte {
	tb.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	frame, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		tb.Fatal(err)
	}
	return frame
}

// goldenSuccessor is the find_successor reply pinned, byte for byte, by
// testdata/find_successor_reply_v1.hex.
var goldenSuccessor = NodeRef{ID: 0x0123456789abcdef, Addr: "127.0.0.1:9000"}

func TestGoldenFindSuccessorReply(t *testing.T) {
	golden := readGolden(t, "testdata/find_successor_reply_v1.hex")
	if got := findSuccessorRPC.EncodeResponse(goldenSuccessor); !bytes.Equal(got, golden) {
		t.Fatalf("find_successor reply encoding changed:\n got %x\nwant %x", got, golden)
	}
	ref, err := findSuccessorRPC.DecodeResponse(golden)
	if err != nil || ref != goldenSuccessor {
		t.Fatalf("golden find_successor reply decodes to %v, %v", ref, err)
	}
}

// TestFindSuccessorAllocs guards one lookup round trip on a converged
// 16-node ring: a few frames per hop, not a type decoder per message.
func TestFindSuccessorAllocs(t *testing.T) {
	nodes, _ := buildRing(t, 16)
	key := HashKey("fire")
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := findSuccessorRPC.Call(nodes[0].rpc(), nodes[5].Self().Addr, key, oneShot); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 60 {
		t.Fatalf("a FindSuccessor round trip took %.0f allocations (ceiling 60)", allocs)
	}
}
