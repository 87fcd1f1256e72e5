package chord

import "iqn/internal/transport"

// The method table of the Chord protocol: every RPC a node serves, with
// the frame codecs of its request and response. Node.registerHandlers
// serves each one; every outgoing Chord call goes through the same
// declaration.

// MaxRing is the largest ring the protocol serves: a ring walk stops
// there, and a client-side map of the ring holds at most this many
// nodes.
const MaxRing = 4096

// maxRefs caps the node references one Chord frame may carry: a
// successor list or a leave notice's splice is a handful of entries, a
// whole ring at most MaxRing.
const maxRefs = MaxRing

var (
	findSuccessorRPC = transport.Method[ID, NodeRef]{
		Name: methodFindSuccessor, Limit: maxRefs,
		EncodeReq: putID, DecodeReq: getID, EncodeResp: putRef, DecodeResp: getRef,
	}
	closestPrecedingRPC = transport.Method[ID, NodeRef]{
		Name: methodClosestPreceding, Limit: maxRefs,
		EncodeReq: putID, DecodeReq: getID, EncodeResp: putRef, DecodeResp: getRef,
	}
	getPredecessorRPC = transport.Method[struct{}, NodeRef]{
		Name: methodGetPredecessor, Limit: maxRefs,
		EncodeResp: putRef, DecodeResp: getRef,
	}
	notifyRPC = transport.Method[NodeRef, bool]{
		Name: methodNotify, Limit: maxRefs,
		EncodeReq: putRef, DecodeReq: getRef,
		EncodeResp: (*transport.Encoder).Bool, DecodeResp: (*transport.Decoder).Bool,
	}
	successorsRPC = transport.Method[struct{}, []NodeRef]{
		Name: methodSuccessors, Limit: maxRefs,
		EncodeResp: putRefs, DecodeResp: getRefs,
	}
	pingRPC = transport.Method[struct{}, bool]{
		Name: methodPing, Limit: maxRefs,
		EncodeResp: (*transport.Encoder).Bool, DecodeResp: (*transport.Decoder).Bool,
	}
	leaveRPC = transport.Method[leaveNotice, bool]{
		Name: methodLeave, Limit: maxRefs,
		EncodeReq: putLeave, DecodeReq: getLeave,
		EncodeResp: (*transport.Encoder).Bool, DecodeResp: (*transport.Decoder).Bool,
	}
)

// none is the empty request of the methods that carry no fields.
var none struct{}

// oneShot is the retry policy of every Chord call: one attempt, no
// deadline. Lookups and stabilization route around a failed node
// themselves.
var oneShot transport.RetryPolicy

func putID(e *transport.Encoder, id ID) { e.Uint(uint64(id)) }

func getID(d *transport.Decoder) ID { return ID(d.Uint()) }

// A NodeRef is its ID then its address.
func putRef(e *transport.Encoder, r NodeRef) {
	e.Uint(uint64(r.ID))
	e.String(r.Addr)
}

func getRef(d *transport.Decoder) NodeRef {
	return NodeRef{ID: ID(d.Uint()), Addr: d.String()}
}

// refBytes is the fewest body bytes one encoded NodeRef takes: one
// varint ID byte and one address-length byte.
const refBytes = 2

// A list of refs is a count then the refs; an empty list decodes as nil.
func putRefs(e *transport.Encoder, refs []NodeRef) {
	e.Uint(uint64(len(refs)))
	for _, r := range refs {
		putRef(e, r)
	}
}

func getRefs(d *transport.Decoder) []NodeRef {
	n := d.Count(refBytes)
	if n == 0 {
		return nil
	}
	refs := make([]NodeRef, n)
	for i := range refs {
		refs[i] = getRef(d)
	}
	return refs
}

func putLeave(e *transport.Encoder, ln leaveNotice) {
	putRef(e, ln.Departing)
	putRef(e, ln.Pred)
	putRefs(e, ln.Succs)
}

func getLeave(d *transport.Decoder) leaveNotice {
	return leaveNotice{Departing: getRef(d), Pred: getRef(d), Succs: getRefs(d)}
}
