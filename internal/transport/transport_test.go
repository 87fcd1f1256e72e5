package transport

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
)

// echoMux returns a mux with an "echo" method and an "fail" method.
func echoMux() *Mux {
	m := NewMux()
	m.Handle("echo", func(req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	m.Handle("fail", func([]byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	return m
}

func TestMuxDispatch(t *testing.T) {
	m := echoMux()
	resp, err := m.Dispatch("echo", []byte("hi"))
	if err != nil || string(resp) != "echo:hi" {
		t.Fatalf("Dispatch = %q, %v", resp, err)
	}
	if _, err := m.Dispatch("missing", nil); !errors.Is(err, ErrNoMethod) {
		t.Fatalf("missing method error = %v", err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	type payload struct {
		A int
		B string
		C []uint64
	}
	in := payload{A: 7, B: "x", C: []uint64{1, 2, 3}}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != in.A || out.B != in.B || len(out.C) != 3 {
		t.Fatalf("round trip = %+v", out)
	}
	if err := Unmarshal([]byte("garbage"), &out); err == nil {
		t.Fatal("Unmarshal(garbage) succeeded")
	}
}

func TestInMemBasic(t *testing.T) {
	n := NewInMem()
	stop, err := n.Register("a", echoMux())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := n.Call("a", "echo", []byte("1"))
	if err != nil || string(resp) != "echo:1" {
		t.Fatalf("Call = %q, %v", resp, err)
	}
	// Application error crosses as RemoteError.
	_, err = n.Call("a", "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Fatalf("remote error = %v", err)
	}
	// Unknown address.
	if _, err := n.Call("nope", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unknown addr error = %v", err)
	}
	// Duplicate registration.
	if _, err := n.Register("a", echoMux()); !errors.Is(err, ErrAddrInUse) {
		t.Fatalf("duplicate register error = %v", err)
	}
	// Deregistration makes the address unreachable.
	stop()
	if _, err := n.Call("a", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("after stop error = %v", err)
	}
}

func TestInMemPartition(t *testing.T) {
	n := NewInMem()
	if _, err := n.Register("a", echoMux()); err != nil {
		t.Fatal(err)
	}
	n.SetPartitioned("a", true)
	if _, err := n.Call("a", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("partitioned error = %v", err)
	}
	n.SetPartitioned("a", false)
	if _, err := n.Call("a", "echo", nil); err != nil {
		t.Fatalf("reconnected error = %v", err)
	}
}

func TestInMemStats(t *testing.T) {
	n := NewInMem()
	if _, err := n.Register("a", echoMux()); err != nil {
		t.Fatal(err)
	}
	n.ResetStats()
	if _, err := n.Call("a", "echo", []byte("xxxx")); err != nil {
		t.Fatal(err)
	}
	calls, bytes := n.Stats()
	if calls != 1 {
		t.Fatalf("calls = %d", calls)
	}
	if bytes != int64(len("xxxx")+len("echo:xxxx")) {
		t.Fatalf("bytes = %d", bytes)
	}
}

func TestInMemConcurrentCalls(t *testing.T) {
	n := NewInMem()
	if _, err := n.Register("a", echoMux()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("m%d", i)
			resp, err := n.Call("a", "echo", []byte(msg))
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != "echo:"+msg {
				errs <- fmt.Errorf("got %q", resp)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInvokeTyped calls a typed method through the table: Handle
// decodes the request and encodes the response, Call the reverse.
func TestInvokeTyped(t *testing.T) {
	n := NewInMem()
	m := NewMux()
	addRPC.Handle(m, add)
	if _, err := n.Register("calc", m); err != nil {
		t.Fatal(err)
	}
	sum, attempts, err := addRPC.Call(n, "calc", [2]int64{2, -3}, RetryPolicy{})
	if err != nil || sum != -1 || attempts != 1 {
		t.Fatalf("Call = %d after %d attempts, %v", sum, attempts, err)
	}
	// A frame that does not decode is a remote error, not a panic.
	if _, err := n.Call("calc", "add", []byte{frameVersion, 0, 0, 0x80}); err == nil {
		t.Fatal("malformed request accepted")
	}
}

// freeAddr reserves an ephemeral TCP address for a test listener.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func TestTCPBasic(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	addr := freeAddr(t)
	stop, err := tr.Register(addr, echoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	resp, err := tr.Call(addr, "echo", []byte("over tcp"))
	if err != nil || string(resp) != "echo:over tcp" {
		t.Fatalf("Call = %q, %v", resp, err)
	}
	// Remote application error.
	_, err = tr.Call(addr, "fail", nil)
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "boom" {
		t.Fatalf("remote error = %v", err)
	}
	// Unknown method crosses as RemoteError containing the name.
	_, err = tr.Call(addr, "nope", nil)
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "nope") {
		t.Fatalf("unknown method error = %v", err)
	}
}

func TestTCPConnectionReuse(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	addr := freeAddr(t)
	stop, err := tr.Register(addr, echoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	for i := 0; i < 20; i++ {
		msg := fmt.Sprintf("%d", i)
		resp, err := tr.Call(addr, "echo", []byte(msg))
		if err != nil || string(resp) != "echo:"+msg {
			t.Fatalf("call %d = %q, %v", i, resp, err)
		}
	}
}

func TestTCPUnreachable(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	if _, err := tr.Call("127.0.0.1:1", "echo", nil); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("unreachable error = %v", err)
	}
}

func TestTCPStopServing(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	addr := freeAddr(t)
	stop, err := tr.Register(addr, echoMux())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(addr, "echo", []byte("x")); err != nil {
		t.Fatal(err)
	}
	stop()
	tr.CloseIdle()
	if _, err := tr.Call(addr, "echo", []byte("x")); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("after stop error = %v", err)
	}
}

func TestTCPConcurrentCalls(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	addr := freeAddr(t)
	stop, err := tr.Register(addr, echoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("c%d", i)
			resp, err := tr.Call(addr, "echo", []byte(msg))
			if err != nil {
				errs <- err
				return
			}
			if string(resp) != "echo:"+msg {
				errs <- fmt.Errorf("got %q want echo:%s", resp, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTCPLargePayload(t *testing.T) {
	tr := NewTCP()
	defer tr.CloseIdle()
	addr := freeAddr(t)
	stop, err := tr.Register(addr, echoMux())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	resp, err := tr.Call(addr, "echo", big)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != len(big)+5 {
		t.Fatalf("resp length = %d", len(resp))
	}
}

// TestInMemLossInjection: a Faulty drop rule over the in-memory network
// loses calls at its rate as ErrUnreachable, and removing the rule
// restores reliability.
func TestInMemLossInjection(t *testing.T) {
	n := NewFaulty(NewInMem(), 7)
	if _, err := n.Register("a", echoMux()); err != nil {
		t.Fatal(err)
	}
	id := n.AddRule(Rule{Drop: 0.5})
	failures := 0
	for i := 0; i < 200; i++ {
		if _, err := n.Call("a", "echo", nil); err != nil {
			if !errors.Is(err, ErrUnreachable) {
				t.Fatalf("loss error = %v", err)
			}
			failures++
		}
	}
	if failures < 60 || failures > 140 {
		t.Fatalf("injected %d/200 failures at rate 0.5", failures)
	}
	n.RemoveRule(id)
	for i := 0; i < 50; i++ {
		if _, err := n.Call("a", "echo", nil); err != nil {
			t.Fatalf("call failed after removing the drop rule: %v", err)
		}
	}
}
