package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// sampleMessages covers every message kind with representative payloads.
func sampleMessages() []Message {
	return []Message{
		&Hello{},
		&HelloOK{Proto: Version, Set: "paper-example-3", Templates: []TemplateInfo{
			{Name: "T1", Priority: 3, Steps: []StepInfo{
				{Op: OpRead, Item: 0, Dur: 1},
				{Op: OpCompute, Item: NoItem, Dur: 4},
				{Op: OpWrite, Item: 1, Dur: 1},
			}},
			{Name: "T2", Priority: 2, Steps: nil},
			{Name: "T3", Priority: 1, Steps: []StepInfo{{Op: OpRead, Item: 7, Dur: 2}}},
		}},
		&Begin{Name: "T1"},
		&Begin{Name: "T2", Deadline: 250},
		&Begin{ReadOnly: true},
		&BeginOK{ID: 0xDEADBEEFCAFE},
		&Read{Item: 42},
		&ReadOK{Value: -77},
		&Write{Item: 3, Value: 1 << 40},
		&WriteOK{},
		&Commit{},
		&CommitOK{},
		&Abort{},
		&AbortOK{},
		&Ping{Nonce: 99},
		&Pong{Nonce: 99},
		&ErrMsg{Code: CodeOverload, Text: "queue full"},
		&ErrMsg{Code: CodeAborted, Text: ""},
		&ErrMsg{Code: CodeShed, Text: "priority shed"},
		&ErrMsg{Code: CodeInfeasible, Text: "deadline infeasible"},
	}
}

func TestRoundTripAllKinds(t *testing.T) {
	for _, m := range sampleMessages() {
		frame, err := AppendTagged(nil, V4, 0, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Kind(), err)
		}
		got, ver, tag, rest, err := DecodeAny(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind(), err)
		}
		if ver != V4 || tag != 0 || len(rest) != 0 {
			t.Fatalf("%s: ver=%d tag=%d rest=%d, want v4 tag 0 rest 0", m.Kind(), ver, tag, len(rest))
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%s: round trip mismatch:\n have %#v\n want %#v", m.Kind(), got, m)
		}
	}
}

func TestTaggedRoundTrip(t *testing.T) {
	for i, m := range sampleMessages() {
		tag := uint32(i * 1000003)
		frame, err := AppendTagged(nil, V4, tag, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Kind(), err)
		}
		got, ver, gotTag, rest, err := DecodeAny(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind(), err)
		}
		if ver != V4 || gotTag != tag || len(rest) != 0 {
			t.Fatalf("%s: ver=%d tag=%d rest=%d, want v4 tag=%d rest=0",
				m.Kind(), ver, gotTag, len(rest), tag)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("%s: round trip mismatch:\n have %#v\n want %#v", m.Kind(), got, m)
		}
	}
	// V4 is the only framing: every other version byte is refused.
	for _, ver := range []uint8{0, 1, 2, 3, 5} {
		if _, err := AppendTagged(nil, ver, 1, &Ping{}); !errors.Is(err, ErrVersion) || !errors.Is(err, ErrMalformed) {
			t.Fatalf("AppendTagged at v%d: err = %v, want ErrVersion wrapping ErrMalformed", ver, err)
		}
	}
}

// TestReadOnlyVersions pins BEGIN's read-only flag: it round-trips, and
// it costs exactly one flag byte whatever its value.
func TestReadOnlyVersions(t *testing.T) {
	ro := &Begin{Name: "T1", ReadOnly: true}
	frame, err := AppendTagged(nil, V4, 9, ro)
	if err != nil {
		t.Fatal(err)
	}
	got, ver, tag, _, err := DecodeAny(frame)
	if err != nil || ver != V4 || tag != 9 {
		t.Fatalf("v4 RO BEGIN decode: %v (ver %d tag %d)", err, ver, tag)
	}
	if b := got.(*Begin); !b.ReadOnly || b.Name != "T1" {
		t.Fatalf("v4 RO BEGIN decoded as %+v", b)
	}
	rw, err := AppendTagged(nil, V4, 9, &Begin{Name: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != len(rw) {
		t.Fatalf("v4 BEGIN sizes differ by flag value: %d vs %d", len(frame), len(rw))
	}
}

func TestStreamRoundTrip(t *testing.T) {
	var stream []byte
	var err error
	for i, m := range sampleMessages() {
		stream, err = AppendTagged(stream, V4, uint32(i), m)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Byte-slice decoding consumes the stream frame by frame.
	rest := stream
	var got []Message
	for len(rest) > 0 {
		var m Message
		m, _, _, rest, err = DecodeAny(rest)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
	}
	want := sampleMessages()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream decode mismatch: %d messages, want %d", len(got), len(want))
	}
	// Reader decoding sees the same sequence, reusing one scratch buffer;
	// a reader that hands out one byte per call exercises the header loop.
	for _, r := range []io.Reader{bytes.NewReader(stream), iotest.OneByteReader(bytes.NewReader(stream))} {
		var scratch []byte
		for i := 0; ; i++ {
			var m Message
			var tag uint32
			m, tag, scratch, err = ReadAny(r, scratch)
			if err == io.EOF {
				if i != len(want) {
					t.Fatalf("reader stopped after %d of %d messages", i, len(want))
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if tag != uint32(i) || !reflect.DeepEqual(m, want[i]) {
				t.Fatalf("message %d mismatch: tag %d, %#v", i, tag, m)
			}
		}
	}
}

func TestDecodeMalformed(t *testing.T) {
	valid, err := AppendTagged(nil, V4, 1, &Begin{Name: "T1"})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":             {},
		"short header":      valid[:4],
		"bad version":       append([]byte{9}, valid[1:]...),
		"old untagged v2":   {2, uint8(KindHello), 0, 0, 0, 0},
		"old tagged v3":     {3, uint8(KindPing), 0, 0, 0, 1, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1},
		"unknown kind":      {V4, 0x70, 0, 0, 0, 0, 0, 0, 0, 0},
		"truncated payload": valid[:len(valid)-1],
		"trailing payload":  withLen(append(bytes.Clone(valid), 0), len(valid)-headerLen+1),
		"oversized decl":    {V4, uint8(KindPing), 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF},
		"string overrun":    withLen([]byte{V4, uint8(KindBegin), 0, 0, 0, 0, 0, 0, 0, 0, 0, 9}, 2),
		"bad error code":    withLen([]byte{V4, uint8(KindErr), 0, 0, 0, 0, 0, 0, 0, 0, 200, 0, 0}, 3),
		"bad step op": withLen([]byte{V4, uint8(KindHelloOK), 0, 0, 0, 0, 0, 0, 0, 0,
			V4, 0, 0, 0, 1, // proto, set "", one template
			0, 0, 0, 0, 0, 3, 0, 1, // name "", pri 3, one step
			9, 0, 0, 0, 0, 0, 0, 0, 1, // op 9 (invalid)
		}, 22),
		"truncated tagged": {V4, uint8(KindPing), 0, 0, 0, 1, 0, 0, 0, 8, 1, 2},
		"begin without flag": withLen([]byte{V4, uint8(KindBegin), 0, 0, 0, 0, 0, 0, 0, 0,
			0, 2, 'T', '1', 0, 0, 0, 5}, 8), // name, deadline, no read-only byte
		"begin bad ro flag": withLen([]byte{V4, uint8(KindBegin), 0, 0, 0, 0, 0, 0, 0, 0,
			0, 0, 0, 0, 0, 0, 2}, 7), // name "", deadline 0, flag 2 (only 0/1 valid)
	}
	for name, b := range cases {
		if _, _, _, _, err := DecodeAny(b); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		} else if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrTooLarge) {
			t.Errorf("%s: error %v does not wrap ErrMalformed/ErrTooLarge", name, err)
		}
	}
	for _, name := range []string{"bad version", "old untagged v2", "old tagged v3"} {
		if _, _, _, _, err := DecodeAny(cases[name]); !errors.Is(err, ErrVersion) {
			t.Errorf("%s: error %v does not wrap ErrVersion", name, err)
		}
	}
}

// withLen rewrites a header's payload-length field.
func withLen(b []byte, n int) []byte {
	putU32(b[headerLen-4:], uint32(n))
	return b
}

func TestEncodeLimits(t *testing.T) {
	if _, err := AppendTagged(nil, V4, 0, &Begin{Name: strings.Repeat("x", MaxString+1)}); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized name: err = %v, want ErrTooLarge", err)
	}
	if _, err := AppendTagged(nil, V4, 0, &ErrMsg{Code: numCodes, Text: "?"}); !errors.Is(err, ErrMalformed) {
		t.Errorf("unknown code: err = %v, want ErrMalformed", err)
	}
	// A schema big enough to overflow MaxPayload must be refused, not sent.
	big := &HelloOK{Proto: Version, Set: "big"}
	tmpl := TemplateInfo{Name: strings.Repeat("n", MaxString), Steps: make([]StepInfo, 1000)}
	for len(big.Templates) < 200 {
		big.Templates = append(big.Templates, tmpl)
	}
	if _, err := AppendTagged(nil, V4, 0, big); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized schema: err = %v, want ErrTooLarge", err)
	}
}

func TestReadFrameEOF(t *testing.T) {
	if _, _, _, err := ReadAny(bytes.NewReader(nil), nil); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
	if _, _, _, err := ReadAny(bytes.NewReader([]byte{V4, 1, 0, 0, 0, 0, 0}), nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("cut header: err = %v, want ErrMalformed", err)
	}
	// An old client's whole untagged HELLO is 6 bytes, shorter than a
	// header: the reader must refuse it on the version byte instead of
	// waiting for 4 more bytes that never come.
	old := iotest.OneByteReader(bytes.NewReader([]byte{2, uint8(KindHello), 0, 0, 0, 0}))
	if _, _, _, err := ReadAny(old, nil); !errors.Is(err, ErrVersion) {
		t.Fatalf("untagged v2 HELLO: err = %v, want ErrVersion", err)
	}
}

func TestBufPool(t *testing.T) {
	b := GetBuf()
	if b == nil || len(*b) != 0 {
		t.Fatalf("GetBuf returned %v", b)
	}
	var err error
	*b, err = AppendTagged((*b)[:0], V4, 7, &Ping{Nonce: 1})
	if err != nil {
		t.Fatal(err)
	}
	PutBuf(b)
	// Oversized buffers must be dropped, not pooled; nil is a no-op.
	huge := make([]byte, 0, maxPooledBuf*2)
	PutBuf(&huge)
	PutBuf(nil)
	b2 := GetBuf()
	if cap(*b2) > maxPooledBuf {
		t.Fatalf("pool returned oversized buffer (cap %d)", cap(*b2))
	}
	PutBuf(b2)
}

func TestRetryableCodes(t *testing.T) {
	want := map[ErrorCode]bool{
		CodeOverload: true, CodeAborted: true, CodeDeadline: true,
		CodeShed: true, CodeInfeasible: true,
		CodeProtocol: false, CodeState: false, CodeCancelled: false,
		CodeDraining: false, CodeInternal: false,
	}
	for c, r := range want {
		if c.Retryable() != r {
			t.Errorf("%s.Retryable() = %v, want %v", c, !r, r)
		}
	}
}

func TestIsCode(t *testing.T) {
	err := error(&RemoteError{Code: CodeOverload, Text: "busy"})
	if !IsCode(err, CodeOverload) || IsCode(err, CodeAborted) {
		t.Fatal("IsCode misclassified a RemoteError")
	}
	if IsCode(errors.New("plain"), CodeOverload) {
		t.Fatal("IsCode matched a non-remote error")
	}
}
