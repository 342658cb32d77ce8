package wire

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWireRoundTrip feeds arbitrary bytes to the frame decoder. The
// contract under fuzzing:
//
//   - decoding never panics, whatever the input;
//   - a malformed frame errors with ErrMalformed/ErrTooLarge;
//   - a frame that decodes re-encodes at its own tag to exactly the
//     bytes consumed (canonical encoding), and
//     decoding the re-encoding yields an equal message (round trip);
//   - the decoder never allocates beyond the declared, bounded payload
//     (enforced structurally: element counts are checked against the
//     remaining payload before any allocation).
func FuzzWireRoundTrip(f *testing.F) {
	for _, m := range []Message{
		&Hello{},
		&HelloOK{Proto: Version, Set: "s", Templates: []TemplateInfo{
			{Name: "T1", Priority: 2, Steps: []StepInfo{{Op: OpRead, Item: 1, Dur: 1}}},
		}},
		&Begin{Name: "T1"},
		&BeginOK{ID: 7},
		&Read{Item: 3},
		&ReadOK{Value: -1},
		&Write{Item: 4, Value: 9},
		&WriteOK{},
		&Commit{},
		&CommitOK{},
		&Abort{},
		&AbortOK{},
		&Ping{Nonce: 1},
		&Pong{Nonce: 1},
		&ErrMsg{Code: CodeDraining, Text: "bye"},
	} {
		// Each message at several tags, so the seeds cover the tag field's
		// extremes as well as every payload encoding.
		for _, tag := range []uint32{0, 1, 0xABCD1234, 0xFFFFFFFF} {
			frame, err := AppendTagged(nil, V4, tag, m)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	f.Add([]byte{V4, uint8(KindHelloOK), 0, 0, 0, 0, 0, 0, 0, 4, 1, 0, 0, 0})
	f.Add([]byte{V4, uint8(KindErr), 0, 0, 0, 7, 0, 0, 0, 0})
	f.Add([]byte{V4, uint8(KindPing), 0, 0, 0, 9, 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 1})
	f.Add([]byte{V4, uint8(KindBegin), 0, 0, 0, 3, 0, 0, 0, 9, 0, 2, 'T', '1', 0, 0, 0, 5, 2})
	if ro, err := AppendTagged(nil, V4, 5, &Begin{Name: "T1", Deadline: 10, ReadOnly: true}); err == nil {
		f.Add(ro)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, ver, tag, rest, err := DecodeAny(data)
		if err != nil {
			if !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrTooLarge) {
				t.Fatalf("decode error %v wraps neither ErrMalformed nor ErrTooLarge", err)
			}
			return
		}
		consumed := data[:len(data)-len(rest)]
		re, err := AppendTagged(nil, ver, tag, m)
		if err != nil {
			t.Fatalf("re-encode of decoded %s (v%d) failed: %v", m.Kind(), ver, err)
		}
		if !bytes.Equal(re, consumed) {
			t.Fatalf("%s (v%d) not canonical:\n consumed %x\n re-encoded %x", m.Kind(), ver, consumed, re)
		}
		m2, ver2, tag2, rest2, err := DecodeAny(re)
		if err != nil || len(rest2) != 0 || ver2 != ver || tag2 != tag {
			t.Fatalf("decode of re-encoding failed: %v (%d rest, v%d tag %d)", err, len(rest2), ver2, tag2)
		}
		f2, err := AppendTagged(nil, ver2, tag2, m2)
		if err != nil || !bytes.Equal(f2, re) {
			t.Fatalf("second round trip diverged: %v", err)
		}
	})
}
