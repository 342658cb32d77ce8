package client

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"pcpda/internal/wire"
)

// fakeServer runs script against every accepted connection and returns
// the listen address. The script talks raw wire frames.
func fakeServer(t *testing.T, script func(t *testing.T, conn net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer func() { _ = conn.Close() }()
				script(t, conn)
			}()
		}
	}()
	return ln.Addr().String()
}

// recv reads one request frame; ok is false once the client has gone.
func recv(conn net.Conn) (m wire.Message, tag uint32, ok bool) {
	m, tag, _, err := wire.ReadAny(conn, nil)
	return m, tag, err == nil
}

func expect(t *testing.T, conn net.Conn, want wire.Kind) (wire.Message, uint32) {
	t.Helper()
	m, tag, ok := recv(conn)
	if !ok {
		t.Errorf("fake server: no %s", want)
		return nil, 0
	}
	if m.Kind() != want {
		t.Errorf("fake server got %s, want %s", m.Kind(), want)
	}
	return m, tag
}

func send(t *testing.T, conn net.Conn, tag uint32, m wire.Message) {
	t.Helper()
	frame, err := wire.AppendTagged(nil, wire.V4, tag, m)
	if err == nil {
		_, err = conn.Write(frame)
	}
	if err != nil {
		t.Errorf("fake server write: %v", err)
	}
}

var fakeSchema = &wire.HelloOK{Proto: wire.Version, Set: "fake",
	Templates: []wire.TemplateInfo{{Name: "T1", Priority: 1}}}

// greet answers the HELLO handshake with fakeSchema.
func greet(t *testing.T, conn net.Conn) {
	t.Helper()
	_, tag := expect(t, conn, wire.KindHello)
	send(t, conn, tag, fakeSchema)
}

// outsideTxn is the server's answer to a request with no transaction
// live: what a burst's trailing frames draw after its BEGIN failed.
var outsideTxn = &wire.ErrMsg{Code: wire.CodeState, Text: "outside a transaction"}

func TestDialHandshake(t *testing.T) {
	addr := fakeServer(t, greet)
	for _, window := range []int{1, 32} {
		c, err := DialPipelined(addr, 2*time.Second, window)
		if err != nil {
			t.Fatal(err)
		}
		if c.Schema().Set != "fake" || len(c.Schema().Templates) != 1 {
			t.Fatalf("schema: %+v", c.Schema())
		}
		if c.Pipelined() != (window > 1) {
			t.Fatalf("window %d: Pipelined() = %v", window, c.Pipelined())
		}
		_ = c.Close()
	}

	// A server that refuses the connection answers HELLO with a tag-0
	// ERR: the dial fails with the typed code, retryable or not.
	busy := fakeServer(t, func(t *testing.T, conn net.Conn) {
		expect(t, conn, wire.KindHello)
		send(t, conn, 0, &wire.ErrMsg{Code: wire.CodeOverload, Text: "connection limit"})
	})
	if _, err := DialPipelined(busy, 2*time.Second, 1); !wire.IsCode(err, wire.CodeOverload) {
		t.Fatalf("dial against a refusing server: %v, want CodeOverload", err)
	}
}

// TestDoRetriesOverload: the first BEGIN is refused with the retryable
// CodeOverload; DoTxn must back off and succeed on the second attempt, at
// any window — a window of 1 is the strict client.
func TestDoRetriesOverload(t *testing.T) {
	for _, window := range []int{1, 32} {
		var begins atomic.Int64
		addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
			greet(t, conn)
			live := false
			for {
				m, tag, ok := recv(conn)
				if !ok {
					return
				}
				switch m.(type) {
				case *wire.Begin:
					if begins.Add(1) == 1 {
						send(t, conn, tag, &wire.ErrMsg{Code: wire.CodeOverload, Text: "full"})
					} else {
						live = true
						send(t, conn, tag, &wire.BeginOK{ID: 9})
					}
				case *wire.Commit:
					if live {
						send(t, conn, tag, &wire.CommitOK{})
					} else {
						send(t, conn, tag, outsideTxn)
					}
					live = false
				default:
					t.Errorf("fake server: unexpected %s", m.Kind())
					return
				}
			}
		})
		pc := NewPipeClient(addr, 2*time.Second, window, 1)
		var retries atomic.Int64
		pc.Retries = &retries
		if err := pc.DoTxn("T1", 0, nil); err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		pc.Close()
		if begins.Load() != 2 || retries.Load() != 1 {
			t.Fatalf("window %d: begins = %d, retries = %d", window, begins.Load(), retries.Load())
		}
	}
}

// TestDoFatalErrorNotRetried: CodeProtocol is not retryable; DoTxn
// returns it after one attempt.
func TestDoFatalErrorNotRetried(t *testing.T) {
	var begins atomic.Int64
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		greet(t, conn)
		for {
			m, tag, ok := recv(conn)
			if !ok {
				return
			}
			if _, isBegin := m.(*wire.Begin); !isBegin {
				send(t, conn, tag, outsideTxn)
				continue
			}
			begins.Add(1)
			send(t, conn, tag, &wire.ErrMsg{Code: wire.CodeProtocol, Text: "no"})
		}
	})
	pc := NewPipeClient(addr, 2*time.Second, 1, 1)
	defer pc.Close()
	err := pc.DoTxn("T1", 0, nil)
	if !wire.IsCode(err, wire.CodeProtocol) {
		t.Fatalf("err = %v", err)
	}
	if begins.Load() != 1 {
		t.Fatalf("begins = %d, want 1 (no retry)", begins.Load())
	}
}

// TestStrictBurstStopsAtFirstError: at window 1 a burst reads each reply
// before sending the next frame and stops at the first ERR, so a refused
// BEGIN costs one frame and a failed step sends nothing after it. A wider
// window sends the whole burst and the trailing frames draw CodeState
// fallout; the outcome is the first failure either way.
func TestStrictBurstStopsAtFirstError(t *testing.T) {
	for _, tc := range []struct {
		name   string
		window int
		code   wire.ErrorCode // the first failure
		frames int64          // request frames after HELLO
	}{
		{"refused BEGIN, strict", 1, wire.CodeShed, 1},
		{"failed READ, strict", 1, wire.CodeAborted, 2},
		{"refused BEGIN, window 32", 32, wire.CodeShed, 4},
		{"failed READ, window 32", 32, wire.CodeAborted, 4},
	} {
		frames := make(chan int64, 1)
		addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
			greet(t, conn)
			var n int64
			live := false
			for {
				m, tag, ok := recv(conn)
				if !ok {
					frames <- n
					return
				}
				n++
				var reply wire.Message = outsideTxn
				switch m.(type) {
				case *wire.Begin:
					if tc.code == wire.CodeShed {
						reply = &wire.ErrMsg{Code: wire.CodeShed, Text: "shed"}
					} else {
						live, reply = true, &wire.BeginOK{ID: 1}
					}
				case *wire.Read:
					if live {
						live, reply = false, &wire.ErrMsg{Code: wire.CodeAborted, Text: "victim"}
					}
				case *wire.Write:
					if live {
						reply = &wire.WriteOK{}
					}
				case *wire.Commit:
					if live {
						live, reply = false, &wire.CommitOK{}
					}
				}
				send(t, conn, tag, reply)
			}
		})
		c, err := DialPipelined(addr, 2*time.Second, tc.window)
		if err != nil {
			t.Fatal(err)
		}
		err = c.RunTxn("T1", 0, []wire.Message{&wire.Read{Item: 1}, &wire.Write{Item: 2, Value: 3}})
		if !wire.IsCode(err, tc.code) {
			t.Fatalf("%s: outcome %v, want code %d", tc.name, err, tc.code)
		}
		if c.Broken() {
			t.Fatalf("%s: connection broken by a typed failure", tc.name)
		}
		_ = c.Close()
		if got := <-frames; got != tc.frames {
			t.Fatalf("%s: server received %d frames, want %d", tc.name, got, tc.frames)
		}
	}
}

// pingServer answers HELLO and every PING, counting connections.
func pingServer(t *testing.T, dials *atomic.Int64) string {
	return fakeServer(t, func(t *testing.T, conn net.Conn) {
		dials.Add(1)
		greet(t, conn)
		for {
			m, tag, ok := recv(conn)
			if !ok {
				return
			}
			if p, isPing := m.(*wire.Ping); isPing {
				send(t, conn, tag, &wire.Pong{Nonce: p.Nonce})
			}
		}
	})
}

func TestPipeClientReusesConnection(t *testing.T) {
	var dials atomic.Int64
	pc := NewPipeClient(pingServer(t, &dials), 2*time.Second, 1, 1)
	defer pc.Close()
	c1, err := pc.get()
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Ping(1); err != nil {
		t.Fatal(err)
	}
	c2, err := pc.get()
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("client did not reuse its healthy connection")
	}
	if dials.Load() != 1 {
		t.Fatalf("dials = %d, want 1", dials.Load())
	}
}

func TestBrokenConnNotPooled(t *testing.T) {
	var dials atomic.Int64
	addr := fakeServer(t, func(t *testing.T, conn net.Conn) {
		dials.Add(1)
		greet(t, conn)
		// Answer the first request with garbage, breaking the stream.
		if _, _, ok := recv(conn); ok {
			_, _ = conn.Write([]byte{0xBA, 0xD0})
		}
	})
	pc := NewPipeClient(addr, 2*time.Second, 1, 1)
	defer pc.Close()
	c, err := pc.get()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(1); err == nil {
		t.Fatal("ping over a corrupted stream succeeded")
	}
	if !c.Broken() {
		t.Fatal("framing failure did not mark the conn broken")
	}
	c2, err := pc.get()
	if err != nil {
		t.Fatalf("get after a broken conn: %v", err)
	}
	if c2 == c {
		t.Fatal("client handed back a broken connection")
	}
	if dials.Load() != 2 {
		t.Fatalf("dials = %d, want 2 (one redial)", dials.Load())
	}
}
