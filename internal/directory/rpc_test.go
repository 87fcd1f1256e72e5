package directory

import (
	"bytes"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"iqn/internal/chord"
	"iqn/internal/telemetry"
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

func codecOf[Req, Resp any](m *method[Req, Resp], req Req, resp Resp) codec {
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

// samplePost is a post with every field set, a histogram included.
func samplePost() Post {
	p := mkPost("peerA", "fire", 5)
	p.Epoch = 2
	p.Histogram = []HistCell{{Lo: 0, Hi: 1, Count: 2, Synopsis: p.Synopsis}, {Lo: 1, Hi: 2}}
	return p
}

// dirCodecs is every directory method with a valid sample of each frame.
func dirCodecs() []codec {
	post := samplePost()
	bare := mkPost("peerB", "ice", 3)
	return []codec{
		codecOf(postRPC, []Post{post, bare}, 2),
		codecOf(getRPC, []string{"fire", "ice"}, getReply{PredID: 1 << 63, Lists: map[string]PeerList{"fire": {post}, "ice": {bare}, "void": nil}}),
		codecOf(pruneRPC, int64(-3), 7),
		codecOf(handoffRPC, handoffRequest{From: 1, To: 1 << 60}, []Post{post}),
		codecOf(handoffPushRPC, handoffPush{Posts: []Post{post}, Floor: 1}, 1),
		codecOf(withdrawRPC, withdrawRequest{Peer: "peerA", Terms: []string{"fire"}}, 1),
		codecOf(digestRPC, "fire", digestResponse{Dig: TermDigest{Count: 2, MaxEpoch: -1, Digest: math.MaxUint64}, Floor: 4}),
		codecOf(repairRPC, repairRequest{Term: "fire", Posts: PeerList{post}, Floor: 1}, 1),
	}
}

// TestMethodTableReencodes runs every truncation and single-byte
// corruption of every directory sample frame through checkDirFrame.
func TestMethodTableReencodes(t *testing.T) {
	node, err := chord.New("table", transport.NewInMem(), chord.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	NewService(node)
	codecs := dirCodecs()
	for _, c := range codecs {
		for _, frame := range [][]byte{c.req, c.resp} {
			for n := 0; n <= len(frame); n++ {
				checkDirFrame(t, node, codecs, frame[:n])
			}
			for i := range frame {
				for _, x := range []byte{0x00, 0x01, 0x7f, 0x80, 0xff} {
					mut := append([]byte(nil), frame...)
					mut[i] = x
					checkDirFrame(t, node, codecs, mut)
				}
			}
		}
	}
}

// TestLyingCountFailsBeforeAllocating claims maxElems posts, terms or
// PeerLists with almost no bytes behind the claim, in every directory
// frame that carries a count: each must be rejected without allocating
// anything sized by the claim.
func TestLyingCountFailsBeforeAllocating(t *testing.T) {
	claim := func(prefix ...byte) []byte {
		// version, empty string and byte sections, then the body.
		return append(append([]byte{1, 0, 0}, prefix...), 0x80, 0x80, 0x80, 0x01) // 1<<21
	}
	frames := []struct {
		name   string
		decode func([]byte) error
		frame  []byte
	}{
		{"dir.post request", func(b []byte) error { _, err := postRPC.DecodeRequest(b); return err }, claim()},
		{"dir.get request", func(b []byte) error { _, err := getRPC.DecodeRequest(b); return err }, claim()},
		{"dir.get response", func(b []byte) error { _, err := getRPC.DecodeResponse(b); return err }, claim(0)},
		{"dir.handoff response", func(b []byte) error { _, err := handoffRPC.DecodeResponse(b); return err }, claim()},
		{"dir.handoff_push request", func(b []byte) error { _, err := handoffPushRPC.DecodeRequest(b); return err }, claim()},
		{"dir.withdraw request", func(b []byte) error { _, err := withdrawRPC.DecodeRequest(b); return err }, claim(0)},
		{"dir.repair request", func(b []byte) error { _, err := repairRPC.DecodeRequest(b); return err }, claim(0)},
	}
	for _, f := range frames {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 20
		for i := 0; i < runs; i++ {
			if err := f.decode(f.frame); err == nil {
				t.Fatalf("%s: a count of %d in %d bytes was accepted", f.name, maxElems, len(f.frame))
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 1024 {
			t.Errorf("%s: a rejected count allocated %d bytes per decode", f.name, per)
		}
	}
}

// equalBits is reflect.DeepEqual except that a NaN equals a NaN with the
// same bits. Zeros compare by value, as in DeepEqual: gob drops the sign
// of a zero float field, a frame keeps it.
func equalBits(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return a.Float() == b.Float() || math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !equalBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for _, k := range a.MapKeys() {
			bv := b.MapIndex(k)
			if !bv.IsValid() || !equalBits(a.MapIndex(k), bv) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !equalBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

// gobOracle checks one value through both codecs: the frame decode of
// its encoding must equal (bit for bit, nil-for-empty included) what the
// gob round trip yields.
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
	if !equalBits(reflect.ValueOf(&got).Elem(), reflect.ValueOf(&want).Elem()) {
		t.Fatalf("%s: frame and gob decodes differ:\nframe %#v\n  gob %#v", what, got, want)
	}
}

// randPosts draws posts over the edges a frame must carry like gob does:
// empty and non-ASCII strings, zero and negative integers, NaN and ±Inf
// scores, nil, empty and filled synopses, with and without histograms.
func randPosts(r *rand.Rand) []Post {
	n := r.IntN(5)
	if n == 0 && r.IntN(2) == 0 {
		return nil
	}
	posts := make([]Post, n)
	for i := range posts {
		posts[i] = Post{
			Peer: randString(r), PeerAddr: randString(r), Term: randString(r),
			ListLength: randInt(r), MaxScore: randFloat(r), AvgScore: randFloat(r),
			TermSpaceSize: randInt(r), NumDocs: randInt(r),
			Synopsis: randBytes(r), Epoch: int64(randInt(r)),
		}
		switch r.IntN(3) {
		case 1:
			posts[i].Histogram = []HistCell{}
		case 2:
			cells := make([]HistCell, 1+r.IntN(3))
			for j := range cells {
				cells[j] = HistCell{Lo: randFloat(r), Hi: randFloat(r), Count: randInt(r), Synopsis: randBytes(r)}
			}
			posts[i].Histogram = cells
		}
	}
	return posts
}

func randString(r *rand.Rand) string {
	return [...]string{"", "peer-1", "fire", "ß→ü", "\x00\xff"}[r.IntN(5)]
}

func randInt(r *rand.Rand) int {
	return [...]int{0, 1, -1, 1 << 40, -1 << 40, math.MaxInt64, math.MinInt64, r.IntN(1000)}[r.IntN(8)]
}

func randFloat(r *rand.Rand) float64 {
	return [...]float64{0, math.Copysign(0, -1), 1.5, -2.25, math.NaN(), math.Inf(1), math.Inf(-1), r.Float64()}[r.IntN(8)]
}

func randBytes(r *rand.Rand) []byte {
	switch r.IntN(3) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	b := make([]byte, 1+r.IntN(20))
	for i := range b {
		b[i] = byte(r.Uint32())
	}
	return b
}

// TestFramesMatchGob is the oracle property: for seeded random values of
// every directory message, the frame round trip equals the gob round
// trip the frames replaced.
func TestFramesMatchGob(t *testing.T) {
	r := rand.New(rand.NewPCG(2006, 35))
	for i := 0; i < 300; i++ {
		posts := randPosts(r)
		gobOracle(t, "dir.post request", posts, postRPC.EncodeRequest, postRPC.DecodeRequest)
		gobOracle(t, "dir.handoff response", posts, handoffRPC.EncodeResponse, handoffRPC.DecodeResponse)
		gobOracle(t, "dir.handoff_push request", handoffPush{Posts: posts, Floor: int64(randInt(r))},
			handoffPushRPC.EncodeRequest, handoffPushRPC.DecodeRequest)
		gobOracle(t, "dir.repair request", repairRequest{Term: randString(r), Posts: posts, Floor: int64(randInt(r))},
			repairRPC.EncodeRequest, repairRPC.DecodeRequest)

		// A decoded reply always holds a map, as gob gives one for a map
		// field that was sent.
		lists := make(map[string]PeerList)
		for j := r.IntN(4); j > 0; j-- {
			lists[randString(r)] = randPosts(r)
		}
		gobOracle(t, "dir.get response", getReply{PredID: chord.ID(r.Uint64() >> r.IntN(64)), Lists: lists},
			getRPC.EncodeResponse, getRPC.DecodeResponse)

		var terms []string
		for j := r.IntN(4); j > 0; j-- {
			terms = append(terms, randString(r))
		}
		gobOracle(t, "dir.get request", terms, getRPC.EncodeRequest, getRPC.DecodeRequest)
		gobOracle(t, "dir.withdraw request", withdrawRequest{Peer: randString(r), Terms: terms},
			withdrawRPC.EncodeRequest, withdrawRPC.DecodeRequest)
		gobOracle(t, "dir.digest response", digestResponse{
			Dig:   TermDigest{Count: randInt(r), MaxEpoch: int64(randInt(r)), Digest: r.Uint64()},
			Floor: int64(randInt(r)),
		}, digestRPC.EncodeResponse, digestRPC.DecodeResponse)
		gobOracle(t, "dir.prune request", int64(randInt(r)), pruneRPC.EncodeRequest, pruneRPC.DecodeRequest)
		gobOracle(t, "dir.post response", randInt(r), postRPC.EncodeResponse, postRPC.DecodeResponse)
	}
}

// goldenGetReply is the dir.get reply pinned, byte for byte, by
// testdata/dir_get_reply_v2.hex: the server's predecessor ID, then two
// terms, one post with a histogram and one without, and a term with no
// posts.
var goldenGetReply = getReply{PredID: 0x0123456789abcdef, Lists: map[string]PeerList{
	"fire": {
		{Peer: "p1", PeerAddr: "mem://p1", Term: "fire", ListLength: 12, MaxScore: 3.5, AvgScore: 1.25,
			TermSpaceSize: 100, NumDocs: 1000, Synopsis: []byte{0xde, 0xad}, Epoch: 3,
			Histogram: []HistCell{{Lo: 0, Hi: 1.75, Count: 7, Synopsis: []byte{0xbe}}}},
		{Peer: "p2", PeerAddr: "mem://p2", Term: "fire", ListLength: 4, MaxScore: 2, AvgScore: 0.5,
			TermSpaceSize: 80, NumDocs: 500, Synopsis: []byte{0xef}, Epoch: -1},
	},
	"ice": nil,
}}

func TestGoldenGetReply(t *testing.T) {
	text, err := os.ReadFile("testdata/dir_get_reply_v2.hex")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := hex.DecodeString(strings.TrimSpace(string(text)))
	if err != nil {
		t.Fatal(err)
	}
	if got := getRPC.EncodeResponse(goldenGetReply); !bytes.Equal(got, golden) {
		t.Fatalf("dir.get reply encoding changed:\n got %x\nwant %x", got, golden)
	}
	decoded, err := getRPC.DecodeResponse(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, goldenGetReply) {
		t.Fatalf("golden dir.get reply decodes to %+v", decoded)
	}
}

// TestGetReplyDecodeAllocsConstant guards the dir.get decode: a reply
// without histograms costs the same few allocations at 64 posts as at 8
// — the map, the PeerList, one string section and one byte slab — with
// no per-post term.
func TestGetReplyDecodeAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		pl := make(PeerList, n)
		for i := range pl {
			pl[i] = mkPost(strings.Repeat("p", 1+i%7), "fire", 1+i)
		}
		frame := getRPC.EncodeResponse(getReply{PredID: 7, Lists: map[string]PeerList{"fire": pl}})
		return testing.AllocsPerRun(50, func() {
			if _, err := getRPC.DecodeResponse(frame); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(8), allocs(64)
	if large > small || large > 8 {
		t.Fatalf("decoding a dir.get reply took %.0f allocations at 8 posts and %.0f at 64 (ceiling 8, no per-post term)", small, large)
	}
}

// TestInvokeCountsWithoutAllocating guards the client's accounting: with
// a registry armed, invoke costs no allocation beyond the RPC itself —
// the per-method counter name is built once, in the method table.
func TestInvokeCountsWithoutAllocating(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts do not hold under -race")
	}
	_, _, clients, net := testRing(t, 1, 1)
	c := clients[0]
	c.Metrics = telemetry.NewRegistry()
	addr := c.node.Self().Addr
	frame := pruneRPC.EncodeRequest(0)
	direct := testing.AllocsPerRun(100, func() {
		if _, _, err := pruneRPC.CallFrame(net, addr, frame, transport.RetryPolicy{}); err != nil {
			t.Fatal(err)
		}
	})
	counted := testing.AllocsPerRun(100, func() {
		if _, err := invokeFrame(c, pruneRPC, addr, frame, 0); err != nil {
			t.Fatal(err)
		}
	})
	if counted > direct {
		t.Fatalf("invoke took %.0f allocations, the bare call %.0f", counted, direct)
	}
	if got := c.Metrics.Snapshot().Counters["directory.rpc."+methodPrune]; got == 0 {
		t.Fatal("invoke did not count the call")
	}
}
