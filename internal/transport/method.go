package transport

import "fmt"

// Method declares one RPC of a subsystem's method table: its name, the
// frame codecs of its request and response (frame.go), and the cap on
// every element count its decoders accept. A subsystem declares each of
// its methods once, as a package-level value, and both sides of the RPC
// go through it: Call on the caller, Handle on the server.
//
// A nil codec stands for an empty body (a request that carries no
// fields).
type Method[Req, Resp any] struct {
	// Name is the method name the Mux dispatches on.
	Name string
	// EncodeReq and DecodeReq are the request codec.
	EncodeReq func(*Encoder, Req)
	DecodeReq func(*Decoder) Req
	// EncodeResp and DecodeResp are the response codec.
	EncodeResp func(*Encoder, Resp)
	DecodeResp func(*Decoder) Resp
	// Limit caps every element count in either frame.
	Limit int
}

// EncodeRequest returns the request frame of req.
func (m *Method[Req, Resp]) EncodeRequest(req Req) []byte { return encodeFrame(m.EncodeReq, req) }

// DecodeRequest parses a request frame. The value owns its memory.
func (m *Method[Req, Resp]) DecodeRequest(data []byte) (Req, error) {
	return decodeFrame(data, m.Limit, m.DecodeReq)
}

// EncodeResponse returns the response frame of resp.
func (m *Method[Req, Resp]) EncodeResponse(resp Resp) []byte { return encodeFrame(m.EncodeResp, resp) }

// DecodeResponse parses a response frame. The value owns its memory.
func (m *Method[Req, Resp]) DecodeResponse(data []byte) (Resp, error) {
	return decodeFrame(data, m.Limit, m.DecodeResp)
}

// Call encodes req once and calls the method at addr under the retry
// policy p (the zero policy makes one attempt with no deadline). It
// returns the decoded response and the number of attempts made.
func (m *Method[Req, Resp]) Call(c Caller, addr string, req Req, p RetryPolicy) (Resp, int, error) {
	return m.CallFrame(c, addr, m.EncodeRequest(req), p)
}

// CallFrame is Call with a request frame the caller already encoded
// (EncodeRequest): one encoding can then be sized, or sent to several
// peers in turn.
func (m *Method[Req, Resp]) CallFrame(c Caller, addr string, frame []byte, p RetryPolicy) (Resp, int, error) {
	var out []byte
	attempts, err := p.Do(addr, func() error {
		var cerr error
		out, cerr = CallTimeout(c, addr, m.Name, frame, p.Timeout)
		return cerr
	})
	if err != nil {
		var zero Resp
		return zero, attempts, err
	}
	resp, err := m.DecodeResponse(out)
	if err != nil {
		return resp, attempts, fmt.Errorf("transport: %s response: %w", m.Name, err)
	}
	return resp, attempts, nil
}

// Handle registers h as the method's server side on mux: each request
// frame is decoded, passed to h, and h's response encoded. A frame that
// does not decode is answered with an error, never a panic.
func (m *Method[Req, Resp]) Handle(mux *Mux, h func(Req) (Resp, error)) {
	mux.Handle(m.Name, func(data []byte) ([]byte, error) {
		req, err := m.DecodeRequest(data)
		if err != nil {
			return nil, fmt.Errorf("transport: %s request: %w", m.Name, err)
		}
		resp, err := h(req)
		if err != nil {
			return nil, err
		}
		return m.EncodeResponse(resp), nil
	})
}
