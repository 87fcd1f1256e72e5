package directory

import (
	"slices"
	"time"

	"iqn/internal/chord"
	"iqn/internal/transport"
)

// The method table of the directory: every RPC a directory node serves,
// with the frame codecs of its request and response and the counter a
// Client bumps per call. NewService serves each one; every directory
// call goes through the same declaration.

// method is one directory RPC: its transport declaration plus the name
// of its directory.rpc.<method> counter, built once here instead of on
// every call.
type method[Req, Resp any] struct {
	transport.Method[Req, Resp]
	counter string
}

func declare[Req, Resp any](m transport.Method[Req, Resp]) *method[Req, Resp] {
	return &method[Req, Resp]{Method: m, counter: "directory.rpc." + m.Name}
}

// maxElems caps every count in a directory frame: the posts of one
// publish batch or handoff push, the terms of one read, the cells of one
// histogram. A whole fraction of a large directory fits; a hostile count
// cannot commit more than this, and never more than its bytes back.
const maxElems = 1 << 21

var (
	postRPC = declare(transport.Method[[]Post, int]{
		Name: methodPost, Limit: maxElems,
		EncodeReq: putPosts, DecodeReq: getPosts, EncodeResp: putInt, DecodeResp: getInt,
	})
	getRPC = declare(transport.Method[[]string, getReply]{
		Name: methodGet, Limit: maxElems,
		EncodeReq: putStrings, DecodeReq: getStrings, EncodeResp: putGetReply, DecodeResp: getGetReply,
	})
	pruneRPC = declare(transport.Method[int64, int]{
		Name: methodPrune, Limit: maxElems,
		EncodeReq: (*transport.Encoder).Int, DecodeReq: (*transport.Decoder).Int,
		EncodeResp: putInt, DecodeResp: getInt,
	})
	handoffRPC = declare(transport.Method[handoffRequest, []Post]{
		Name: methodHandoff, Limit: maxElems,
		EncodeReq: putHandoffRequest, DecodeReq: getHandoffRequest, EncodeResp: putPosts, DecodeResp: getPosts,
	})
	handoffPushRPC = declare(transport.Method[handoffPush, int]{
		Name: methodHandoffPush, Limit: maxElems,
		EncodeReq: putHandoffPush, DecodeReq: getHandoffPush, EncodeResp: putInt, DecodeResp: getInt,
	})
	withdrawRPC = declare(transport.Method[withdrawRequest, int]{
		Name: methodWithdraw, Limit: maxElems,
		EncodeReq: putWithdraw, DecodeReq: getWithdraw, EncodeResp: putInt, DecodeResp: getInt,
	})
	digestRPC = declare(transport.Method[string, digestResponse]{
		Name: methodDigest, Limit: maxElems,
		EncodeReq: (*transport.Encoder).String, DecodeReq: (*transport.Decoder).String,
		EncodeResp: putDigest, DecodeResp: getDigest,
	})
	repairRPC = declare(transport.Method[repairRequest, int]{
		Name: methodRepair, Limit: maxElems,
		EncodeReq: putRepair, DecodeReq: getRepair, EncodeResp: putInt, DecodeResp: getInt,
	})
)

// invoke issues one directory RPC under the client's retry policy, with
// every attempt's timeout capped by budget (≤ 0: uncapped). The cap is
// per attempt, not per call chain; callers with an end-to-end budget
// re-check what remains between stages.
func invoke[Req, Resp any](c *Client, m *method[Req, Resp], addr string, req Req, budget time.Duration) (Resp, error) {
	return invokeFrame(c, m, addr, m.EncodeRequest(req), budget)
}

// invokeFrame is invoke with the request already encoded.
func invokeFrame[Req, Resp any](c *Client, m *method[Req, Resp], addr string, frame []byte, budget time.Duration) (Resp, error) {
	c.Metrics.Counter(m.counter).Inc()
	resp, attempts, err := m.CallFrame(c.node.Network(), addr, frame, c.Retry.Within(budget))
	if attempts > 1 {
		c.Metrics.Counter("transport.retries").Add(int64(attempts - 1))
	}
	return resp, err
}

func putInt(e *transport.Encoder, v int) { e.Int(int64(v)) }

func getInt(d *transport.Decoder) int { return int(d.Int()) }

// Strings are a count then the strings; an empty list decodes as nil.
func putStrings(e *transport.Encoder, ss []string) {
	e.Uint(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

func getStrings(d *transport.Decoder) []string {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.String()
	}
	return ss
}

// postBytes and cellBytes are the fewest body bytes one encoded Post and
// one HistCell take: a byte per varint and length, 8 per float.
const (
	postBytes = 3 + 1 + 8 + 8 + 1 + 1 + 1 + 1 + 1
	cellBytes = 8 + 8 + 1 + 1
)

// A Post is its fields in declaration order; the histogram is a count
// then the cells.
func putPost(e *transport.Encoder, p *Post) {
	e.String(p.Peer)
	e.String(p.PeerAddr)
	e.String(p.Term)
	e.Int(int64(p.ListLength))
	e.Float(p.MaxScore)
	e.Float(p.AvgScore)
	e.Int(int64(p.TermSpaceSize))
	e.Int(int64(p.NumDocs))
	e.Bytes(p.Synopsis)
	e.Uint(uint64(len(p.Histogram)))
	for _, c := range p.Histogram {
		e.Float(c.Lo)
		e.Float(c.Hi)
		e.Int(int64(c.Count))
		e.Bytes(c.Synopsis)
	}
	e.Int(p.Epoch)
}

func getPost(d *transport.Decoder, p *Post) {
	p.Peer = d.String()
	p.PeerAddr = d.String()
	p.Term = d.String()
	p.ListLength = int(d.Int())
	p.MaxScore = d.Float()
	p.AvgScore = d.Float()
	p.TermSpaceSize = int(d.Int())
	p.NumDocs = int(d.Int())
	p.Synopsis = d.Bytes()
	if n := d.Count(cellBytes); n > 0 {
		p.Histogram = make([]HistCell, n)
		for i := range p.Histogram {
			c := &p.Histogram[i]
			c.Lo = d.Float()
			c.Hi = d.Float()
			c.Count = int(d.Int())
			c.Synopsis = d.Bytes()
		}
	}
	p.Epoch = d.Int()
}

// Posts are a count then the posts; an empty list decodes as nil.
func putPosts(e *transport.Encoder, posts []Post) {
	e.Uint(uint64(len(posts)))
	for i := range posts {
		putPost(e, &posts[i])
	}
}

func getPosts(d *transport.Decoder) []Post {
	n := d.Count(postBytes)
	if n == 0 {
		return nil
	}
	posts := make([]Post, n)
	for i := range posts {
		getPost(d, &posts[i])
	}
	return posts
}

// A dir.get reply is the serving node's predecessor ID, then a count of
// terms, then per term in ascending order the term and its posts. The
// decoder requires that order, so a decoded reply re-encodes to the same
// bytes.
func putGetReply(e *transport.Encoder, r getReply) {
	e.Uint(uint64(r.PredID))
	terms := make([]string, 0, len(r.Lists))
	for t := range r.Lists {
		terms = append(terms, t)
	}
	slices.Sort(terms)
	e.Uint(uint64(len(terms)))
	for _, t := range terms {
		e.String(t)
		putPosts(e, r.Lists[t])
	}
}

func getGetReply(d *transport.Decoder) getReply {
	r := getReply{PredID: chord.ID(d.Uint())}
	n := d.Count(2)
	lists := make(map[string]PeerList, n)
	r.Lists = lists
	prev := ""
	for i := 0; i < n; i++ {
		t := d.String()
		if i > 0 && t <= prev {
			d.Fail("terms out of order: %q after %q", t, prev)
			return r
		}
		lists[t] = getPosts(d)
		prev = t
	}
	return r
}

func putHandoffRequest(e *transport.Encoder, r handoffRequest) {
	e.Uint(uint64(r.From))
	e.Uint(uint64(r.To))
}

func getHandoffRequest(d *transport.Decoder) handoffRequest {
	return handoffRequest{From: chord.ID(d.Uint()), To: chord.ID(d.Uint())}
}

func putHandoffPush(e *transport.Encoder, p handoffPush) {
	putPosts(e, p.Posts)
	e.Int(p.Floor)
}

func getHandoffPush(d *transport.Decoder) handoffPush {
	return handoffPush{Posts: getPosts(d), Floor: d.Int()}
}

func putWithdraw(e *transport.Encoder, w withdrawRequest) {
	e.String(w.Peer)
	putStrings(e, w.Terms)
}

func getWithdraw(d *transport.Decoder) withdrawRequest {
	return withdrawRequest{Peer: d.String(), Terms: getStrings(d)}
}

func putDigest(e *transport.Encoder, r digestResponse) {
	e.Int(int64(r.Dig.Count))
	e.Int(r.Dig.MaxEpoch)
	e.Uint(r.Dig.Digest)
	e.Int(r.Floor)
}

func getDigest(d *transport.Decoder) digestResponse {
	return digestResponse{
		Dig:   TermDigest{Count: int(d.Int()), MaxEpoch: d.Int(), Digest: d.Uint()},
		Floor: d.Int(),
	}
}

func putRepair(e *transport.Encoder, r repairRequest) {
	e.String(r.Term)
	putPosts(e, r.Posts)
	e.Int(r.Floor)
}

func getRepair(d *transport.Decoder) repairRequest {
	return repairRequest{Term: d.String(), Posts: getPosts(d), Floor: d.Int()}
}
