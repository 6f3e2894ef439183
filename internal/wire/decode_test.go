package wire

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/nbac"
	"repro/internal/rounds"
)

// canonicalEnvelopes is one envelope per kind, as in the golden size table,
// each bare and instance-tagged.
func canonicalEnvelopes() []Envelope {
	payloads := []struct {
		kind    Kind
		payload rounds.Message
	}{
		{KindNull, nil},
		{KindW, consensus.WMsg{W: model.NewValueSet(0, 1, 2)}},
		{KindW, consensus.WMsg{}},
		{KindD, consensus.DMsg{V: 5}},
		{KindA1Val, consensus.A1Val{V: 5}},
		{KindA1Fwd, consensus.A1Fwd{V: -5}},
		{KindVotes, nbac.VotesMsg{Known: []int8{1, 0, -1}}},
		{KindHeartbeat, nil},
		{KindFDPing, nil},
		{KindFDAck, nil},
		{KindFDRing, RingInfo{Origins: []RingOrigin{{Proc: 1, Seq: 1}, {Proc: 2, Seq: 2}, {Proc: 3, Seq: 3}}}},
	}
	var out []Envelope
	for _, p := range payloads {
		for _, inst := range []uint64{0, 3, 99999} {
			out = append(out, Envelope{From: 1, To: 2, Round: 1, Kind: p.kind, Instance: inst, Payload: p.payload})
		}
	}
	return out
}

// hostileCounts are frames whose element count promises more than the frame
// holds: a count of 2^63 (nine 0xff bytes and a 0x01) and one of 2^31, for
// each repeated payload. Before the count was checked against the bytes that
// remain, the first panicked in makeslice — on the mesh's delivery goroutine,
// taking the daemon down — and the second asked for gigabytes.
func hostileCounts() [][]byte {
	var out [][]byte
	for _, k := range []Kind{KindW, KindVotes, KindFDRing} {
		head := []byte{1, 1, 1, byte(k)}
		out = append(out,
			append(append([]byte(nil), head...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
			append(append([]byte(nil), head...), 0x80, 0x80, 0x80, 0x80, 0x08),
			append(append([]byte(nil), head...), 0x03, 0x01, 0x02)) // says three, holds two
	}
	// Counts that pass the byte bound while their elements do not fit, which
	// Split must find by skipping: a ring digest's origin is two varints, and
	// a W element's continuation bits run off the end, or past ten bytes.
	return append(out,
		[]byte{1, 1, 1, byte(KindFDRing), 0x02, 0x01, 0x01, 0x01},
		[]byte{1, 1, 1, byte(KindW), 0x02, 0x01, 0x81},
		[]byte{1, 1, 1, byte(KindW), 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
}

func TestDecodeHostileCounts(t *testing.T) {
	for _, frame := range hostileCounts() {
		if _, err := Decode(frame); !errors.Is(err, ErrTruncated) {
			t.Errorf("Decode(%x) = %v, want ErrTruncated", frame, err)
		}
		if _, _, err := Split(frame); !errors.Is(err, ErrTruncated) {
			t.Errorf("Split(%x) = %v, want ErrTruncated", frame, err)
		}
	}
}

// TestSplitAllocatesNothing: splitting a frame off its payload costs the
// allocator nothing, and the payload bytes are the frame's own.
func TestSplitAllocatesNothing(t *testing.T) {
	for _, env := range canonicalEnvelopes() {
		frame, err := Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		var payload []byte
		if n := testing.AllocsPerRun(100, func() { _, payload, _ = Split(frame) }); n != 0 {
			t.Errorf("Split of a %v frame allocates %v times, want 0", env.Kind, n)
		}
		if len(payload) > 0 && &payload[0] != &frame[4] {
			t.Errorf("%v: payload does not alias the frame right after its 4-byte header", env.Kind)
		}
	}
}

// TestDecodeOwnsPayload: a decoded envelope keeps nothing of the frame it was
// read from — receivers hold payloads across rounds while the transport's
// buffers move on.
func TestDecodeOwnsPayload(t *testing.T) {
	for _, env := range canonicalEnvelopes() {
		frame, err := Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		for i := range frame {
			frame[i] = 0xAA
		}
		if !reflect.DeepEqual(got, env) {
			t.Errorf("kind %v: overwriting the frame changed the decoded envelope: %+v, want %+v", env.Kind, got, env)
		}
	}
	w := consensus.WMsg{W: model.NewValueSet(-3, 8, 1000, 1<<40)}
	frame, _ := Encode(Envelope{From: 1, To: 2, Round: 1, Kind: KindW, Payload: w})
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	clear(frame)
	if set := got.Payload.(consensus.WMsg).W; !set.Equal(w.W) {
		t.Errorf("W after the frame was cleared = %v, want %v", set, w.W)
	}
}

// TestDecodeSortsWhatAnEncoderWouldNot: a W frame whose values arrive
// unsorted or repeated still decodes to a proper set.
func TestDecodeSortsWhatAnEncoderWouldNot(t *testing.T) {
	frame := []byte{1, 2, 1, byte(KindW), 4}
	for _, v := range []int64{9, -2, 9, 0} {
		frame = appendVarint(frame, v)
	}
	env, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := env.Payload.(consensus.WMsg).W, model.NewValueSet(-2, 0, 9); !reflect.DeepEqual(got, want) {
		t.Errorf("decoded %v, want %v", got, want)
	}
}

// TestCodecAllocs pins what the codec costs the allocator: a decoded W frame
// is its value slice and the boxed payload, and encoding into a buffer with
// room is free.
func TestCodecAllocs(t *testing.T) {
	env := Envelope{From: 1, To: 2, Round: 1, Kind: KindW, Instance: 12345,
		Payload: consensus.WMsg{W: model.NewValueSet(10, 20, 30, 40, 50)}}
	frame, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	var sink Envelope
	if n := testing.AllocsPerRun(200, func() { sink, _ = Decode(frame) }); n > 2 {
		t.Errorf("Decode of a 5-value W frame allocates %v times, want ≤ 2", n)
	}
	if !reflect.DeepEqual(sink, env) {
		t.Fatalf("decoded %+v, want %+v", sink, env)
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(200, func() { buf, _ = AppendEnvelope(buf[:0], env) }); n != 0 {
		t.Errorf("AppendEnvelope into sufficient capacity allocates %v times, want 0", n)
	}
	if string(buf) != string(frame) {
		t.Errorf("AppendEnvelope wrote %x, Encode %x", buf, frame)
	}
}

// TestAppendEnvelopeAppends: the encoding lands after what the buffer holds,
// and every kind's bytes are Encode's bytes.
func TestAppendEnvelopeAppends(t *testing.T) {
	for _, env := range canonicalEnvelopes() {
		want, err := Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendEnvelope([]byte("prefix"), env)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+string(want) {
			t.Errorf("kind %v: AppendEnvelope = %x, want prefix+%x", env.Kind, got, want)
		}
	}
	if got, err := AppendEnvelope([]byte("prefix"), Envelope{From: 1, To: 2, Round: 1, Kind: KindW}); err == nil || got != nil {
		t.Errorf("AppendEnvelope of a W envelope without a WMsg = (%x, %v), want (nil, error)", got, err)
	}
}

// TestAppendPayloadMatchesSplit: AppendPayload writes exactly the bytes
// Split returns as the frame's payload, for every kind — what a receiver
// compares a frame against — and refuses a payload its kind cannot carry, so
// a null frame never matches a message.
func TestAppendPayloadMatchesSplit(t *testing.T) {
	for _, env := range canonicalEnvelopes() {
		frame, err := Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := Split(frame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendPayload([]byte("prefix"), env.Kind, env.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+string(want) {
			t.Errorf("kind %v: AppendPayload = %x, want prefix+%x", env.Kind, got, want)
		}
	}
	for _, k := range []Kind{KindNull, KindHeartbeat, KindFDPing, KindFDAck} {
		if got, err := AppendPayload(nil, k, consensus.DMsg{V: 1}); err == nil || got != nil {
			t.Errorf("AppendPayload(%v, a DMsg) = (%x, %v), want (nil, error)", k, got, err)
		}
	}
}

// TestPeekControl: every kind, bare and instance-tagged, is control exactly
// when its kind says so; cut short at any length it is control only if what
// is left still decodes as a control frame; inside a batch container, alone
// or in company, it never is.
func TestPeekControl(t *testing.T) {
	kinds := map[Kind]bool{}
	var batch []byte
	for _, env := range canonicalEnvelopes() {
		kinds[env.Kind] = true
		frame, err := Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		if got := PeekControl(frame); got != env.Kind.Control() {
			t.Errorf("PeekControl(%v, instance %d) = %v", env.Kind, env.Instance, got)
		}
		for cut := 0; cut < len(frame); cut++ {
			short, err := Decode(frame[:cut])
			if want := err == nil && short.Kind.Control(); PeekControl(frame[:cut]) != want {
				t.Errorf("PeekControl(%v frame cut to %d of %d bytes) = %v", env.Kind, cut, len(frame), !want)
			}
		}
		if PeekControl(AppendToBatch(nil, frame)) {
			t.Errorf("PeekControl(a batch of one %v frame) = true", env.Kind)
		}
		batch = AppendToBatch(batch, frame)
	}
	for _, k := range Kinds() {
		if !kinds[k] {
			t.Errorf("kind %v has no canonical envelope: the table above skips it", k)
		}
	}
	if PeekControl(batch) || PeekControl(nil) || PeekControl([]byte{}) {
		t.Error("PeekControl is true of a batch of every kind, or of no bytes at all")
	}
	// A batch whose second and third bytes read as a heartbeat's kind and
	// nothing after: only the marker says it is not one.
	if disguised := []byte{batchMarker, 1, 1, byte(KindHeartbeat)}; PeekControl(disguised) {
		t.Errorf("PeekControl(%x) = true for a packet that starts with the batch marker", disguised)
	}
}

// FuzzDecode: Decode never panics on any input, whatever it accepts
// re-encodes to bytes that decode to the same envelope, and PeekControl says
// control of exactly the bare frames that decode to a control kind. Split
// accepts and rejects exactly what Decode does, with the same header, and
// DecodePayload of what it split off is Decode's payload.
func FuzzDecode(f *testing.F) {
	for _, env := range canonicalEnvelopes() {
		frame, err := Encode(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, frame := range hostileCounts() {
		f.Add(frame)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := reader{buf: data}
		if _, n := binary.Uvarint(data); (r.skip(1) == nil) != (n > 0) || (n > 0 && r.pos != n) {
			t.Fatalf("skip over %x stops at %d; binary.Uvarint reads %d bytes", data, r.pos, n)
		}
		env, err := Decode(data)
		if want := err == nil && !IsBatch(data) && env.Kind.Control(); PeekControl(data) != want {
			t.Fatalf("PeekControl(%x) = %v; Decode says (%+v, %v)", data, !want, env, err)
		}
		head, payload, serr := Split(data)
		if (serr == nil) != (err == nil) {
			t.Fatalf("Split(%x) error %v, Decode error %v", data, serr, err)
		}
		if err != nil {
			return
		}
		want := env
		want.Payload = nil
		if !reflect.DeepEqual(head, want) {
			t.Fatalf("Split(%x) header %+v, Decode %+v", data, head, env)
		}
		msg, err := DecodePayload(head.Kind, payload)
		if err != nil || !reflect.DeepEqual(msg, env.Payload) {
			t.Fatalf("DecodePayload(%v, %x) = (%+v, %v), Decode's payload %+v", head.Kind, payload, msg, err, env.Payload)
		}
		again, err := Encode(env)
		if err != nil {
			t.Fatalf("decoded %+v does not re-encode: %v", env, err)
		}
		back, err := Decode(again)
		if err != nil {
			t.Fatalf("re-encoding %x of %+v does not decode: %v", again, env, err)
		}
		if !reflect.DeepEqual(back, env) {
			t.Fatalf("round trip changed the envelope: %+v, then %+v", env, back)
		}
	})
}
