package directory

import (
	"bytes"
	"errors"
	"testing"

	"iqn/internal/chord"
	"iqn/internal/transport"
)

// FuzzDirectoryHandlers feeds arbitrary bytes to every directory RPC of
// a one-node service through its mux — the decoders a remote peer can
// reach with a hostile payload — and through every method's decoders.
// Each call must return an error or a response, never panic, and any
// frame a decoder accepts must re-encode to the same bytes. The corpus
// starts from valid frames of every request and response.
func FuzzDirectoryHandlers(f *testing.F) {
	codecs := dirCodecs()
	for _, c := range codecs {
		f.Add(c.req)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	for _, c := range codecs {
		f.Add(c.resp)
	}
	f.Add(getRPC.EncodeResponse(goldenGetReply))

	f.Fuzz(func(t *testing.T, data []byte) {
		node, err := chord.New("fuzz-dir", transport.NewInMem(), chord.Config{})
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		NewService(node)
		checkDirFrame(t, node, codecs, data)
	})
}

// checkDirFrame feeds one frame to every directory handler of a
// one-node service and to every method's decoders: a handler answers or
// errors, never panics, and any frame a decoder accepts re-encodes to
// the same bytes.
func checkDirFrame(t *testing.T, node *chord.Node, codecs []codec, data []byte) {
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
