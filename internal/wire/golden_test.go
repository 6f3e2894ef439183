package wire

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/nbac"
	"repro/internal/rounds"
)

// TestGoldenWireSizes pins the encoded size of one canonical envelope per
// message type. The table is the wire format's regression anchor: the
// messages/decision and bytes/decision baselines in EXPERIMENTS.md are
// stated against these sizes, and the planned zero-alloc codec rewrite
// must reproduce them byte-for-byte. A diff here means the format changed
// — update the table (and the recorded baselines) only deliberately.
func TestGoldenWireSizes(t *testing.T) {
	canon := func(k Kind, payload rounds.Message) Envelope {
		return Envelope{From: 1, To: 2, Round: 1, Kind: k, Payload: payload}
	}
	cases := []struct {
		env  Envelope
		size int
	}{
		{canon(KindNull, nil), 4},
		{canon(KindW, consensus.WMsg{W: model.NewValueSet(0, 1, 2)}), 8},
		{canon(KindD, consensus.DMsg{V: 5}), 5},
		{canon(KindA1Val, consensus.A1Val{V: 5}), 5},
		{canon(KindA1Fwd, consensus.A1Fwd{V: 5}), 5},
		{canon(KindVotes, nbac.VotesMsg{Known: []int8{1, 0, -1}}), 8},
		{canon(KindHeartbeat, nil), 4},
		{canon(KindFDPing, nil), 4},
		{canon(KindFDAck, nil), 4},
		{canon(KindFDRing, RingInfo{Origins: []RingOrigin{{Proc: 1, Seq: 1}, {Proc: 2, Seq: 2}, {Proc: 3, Seq: 3}}}), 11},
	}

	// The case list covers every kind, in tag order.
	if len(cases) != len(Kinds()) {
		t.Fatalf("golden table has %d rows, wire has %d kinds", len(cases), len(Kinds()))
	}
	var table strings.Builder
	for i, tc := range cases {
		if tc.env.Kind != Kinds()[i] {
			t.Fatalf("row %d is %v, want %v (keep tag order)", i, tc.env.Kind, Kinds()[i])
		}
		data, err := Encode(tc.env)
		if err != nil {
			t.Fatalf("encode %v: %v", tc.env.Kind, err)
		}
		fmt.Fprintf(&table, "%-9s %d\n", tc.env.Kind, len(data))
		if len(data) != tc.size {
			t.Errorf("kind %v: canonical envelope now encodes to %d bytes, want %d\n"+
				"full table:\n%s", tc.env.Kind, len(data), tc.size, table.String())
		}
		// And the frame round-trips.
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("decode %v: %v", tc.env.Kind, err)
		}
		if back.Kind != tc.env.Kind || back.From != tc.env.From || back.Round != tc.env.Round {
			t.Fatalf("kind %v: round-trip header mismatch: %+v", tc.env.Kind, back)
		}
	}
}

// TestGoldenInstanceWireSizes pins the instance-tagged encoding the
// shared-mesh engine multiplexes on: the instance id rides as a trailing
// uvarint, present exactly when nonzero. The single-instance rows prove the
// zero-cost claim — Instance 0 encodes byte-identically to the
// pre-instance format of TestGoldenWireSizes — and the tagged rows pin the
// varint growth schedule.
func TestGoldenInstanceWireSizes(t *testing.T) {
	canon := func(k Kind, inst uint64, payload rounds.Message) Envelope {
		return Envelope{From: 1, To: 2, Round: 1, Kind: k, Instance: inst, Payload: payload}
	}
	cases := []struct {
		env  Envelope
		size int
	}{
		{canon(KindNull, 0, nil), 4},      // single-instance: unchanged
		{canon(KindNull, 1, nil), 5},      // +1 tag byte
		{canon(KindNull, 127, nil), 5},    // largest 1-byte uvarint
		{canon(KindNull, 128, nil), 6},    // first 2-byte uvarint
		{canon(KindNull, 99999, nil), 7},  // 100k-instance scale: 3 bytes
		{canon(KindHeartbeat, 0, nil), 4}, // control traffic never carries an instance
		{canon(KindD, 3, consensus.DMsg{V: 5}), 6},
		{canon(KindW, 3, consensus.WMsg{W: model.NewValueSet(0, 1, 2)}), 9},
	}
	for _, tc := range cases {
		data, err := Encode(tc.env)
		if err != nil {
			t.Fatalf("encode %v inst=%d: %v", tc.env.Kind, tc.env.Instance, err)
		}
		if len(data) != tc.size {
			t.Errorf("kind %v instance %d: encodes to %d bytes, want %d",
				tc.env.Kind, tc.env.Instance, len(data), tc.size)
		}
		back, err := Decode(data)
		if err != nil {
			t.Fatalf("decode %v inst=%d: %v", tc.env.Kind, tc.env.Instance, err)
		}
		if back.Instance != tc.env.Instance {
			t.Fatalf("kind %v: instance %d round-tripped to %d", tc.env.Kind, tc.env.Instance, back.Instance)
		}
	}
}

// TestInstanceZeroByteIdentity proves a zero-instance envelope is
// byte-for-byte the pre-instance encoding for EVERY kind: the golden table
// of TestGoldenWireSizes was produced before the field existed, and an
// explicit Instance: 0 must not disturb a single byte of it.
func TestInstanceZeroByteIdentity(t *testing.T) {
	envs := []Envelope{
		{From: 3, To: 1, Round: 7, Kind: KindNull},
		{From: 1, To: 2, Round: 2, Kind: KindW, Payload: consensus.WMsg{W: model.NewValueSet(4, 9)}},
		{From: 2, To: 3, Round: 1, Kind: KindVotes, Payload: nbac.VotesMsg{Known: []int8{1, -1}}},
		{From: 4, To: 5, Round: 300, Kind: KindHeartbeat},
	}
	for _, env := range envs {
		plain, err := Encode(env)
		if err != nil {
			t.Fatal(err)
		}
		tagged := env
		tagged.Instance = 0
		got, err := Encode(tagged)
		if err != nil {
			t.Fatal(err)
		}
		if string(plain) != string(got) {
			t.Fatalf("kind %v: explicit Instance 0 changed bytes: %x vs %x", env.Kind, plain, got)
		}
		back, err := Decode(plain)
		if err != nil {
			t.Fatal(err)
		}
		if back.Instance != 0 {
			t.Fatalf("kind %v: pre-instance frame decoded with instance %d", env.Kind, back.Instance)
		}
	}
}
