package wire

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/nbac"
	"repro/internal/rounds"
)

func roundTrip(t *testing.T, e Envelope) Envelope {
	t.Helper()
	data, err := Encode(e)
	if err != nil {
		t.Fatalf("Encode(%+v): %v", e, err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return got
}

func TestRoundTripAllKinds(t *testing.T) {
	tests := []struct {
		name    string
		payload rounds.Message
	}{
		{"null", nil},
		{"W", consensus.WMsg{W: model.NewValueSet(-3, 0, 42)}},
		{"W empty", consensus.WMsg{W: model.NewValueSet()}},
		{"D", consensus.DMsg{V: -7}},
		{"A1Val", consensus.A1Val{V: 123456789}},
		{"A1Fwd", consensus.A1Fwd{V: -1}},
		{"Votes", nbac.VotesMsg{Known: []int8{-1, 0, 1, -1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			e, err := EnvelopeFor(3, 5, 7, tt.payload)
			if err != nil {
				t.Fatal(err)
			}
			got := roundTrip(t, e)
			if got.From != 3 || got.To != 5 || got.Round != 7 || got.Kind != e.Kind {
				t.Errorf("header mismatch: %+v vs %+v", got, e)
			}
			if !reflect.DeepEqual(got.Payload, e.Payload) {
				t.Errorf("payload mismatch: %#v vs %#v", got.Payload, e.Payload)
			}
		})
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	e := Envelope{From: 1, To: 2, Round: 99, Kind: KindHeartbeat}
	got := roundTrip(t, e)
	if got.Kind != KindHeartbeat || got.Round != 99 || got.Payload != nil {
		t.Errorf("heartbeat mismatch: %+v", got)
	}
}

func TestEnvelopeForUnsupported(t *testing.T) {
	if _, err := EnvelopeFor(1, 2, 3, "bogus"); err == nil {
		t.Error("unsupported payload accepted")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Errorf("empty: err = %v, want ErrTruncated", err)
	}
	e, _ := EnvelopeFor(1, 2, 3, consensus.DMsg{V: 9})
	data, err := Encode(e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(data[:len(data)-1]); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated: err = %v, want ErrTruncated", err)
	}
	bad := append([]byte{}, data...)
	bad[3] = 0xEE // corrupt the kind byte (from=1,to=2,round=3 are single bytes)
	if _, err := Decode(bad); !errors.Is(err, ErrBadKind) {
		t.Errorf("bad kind: err = %v, want ErrBadKind", err)
	}
}

// Property: W messages round-trip for arbitrary value sets.
func TestWRoundTripProperty(t *testing.T) {
	f := func(raw []int32, from, to uint8, round uint16) bool {
		vals := make([]model.Value, len(raw))
		for i, r := range raw {
			vals[i] = model.Value(r)
		}
		e, err := EnvelopeFor(model.ProcessID(from%60+1), model.ProcessID(to%60+1), int(round),
			consensus.WMsg{W: model.NewValueSet(vals...)})
		if err != nil {
			return false
		}
		data, err := Encode(e)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	for k := KindNull; k <= MaxKind; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind name empty")
	}
}

// TestControlKinds pins the control/data split a node's receive function and
// the cost accounting rely on: exactly the detector kinds are control.
func TestControlKinds(t *testing.T) {
	control := map[Kind]bool{KindHeartbeat: true, KindFDPing: true, KindFDAck: true, KindFDRing: true}
	for _, k := range Kinds() {
		if got := k.Control(); got != control[k] {
			t.Errorf("kind %v: Control() = %v, want %v", k, got, control[k])
		}
	}
}

// TestDetectorControlRoundTrips covers the zoo detectors' control kinds:
// bare ping/ack envelopes and a ring digest with per-origin sequences.
func TestDetectorControlRoundTrips(t *testing.T) {
	for _, k := range []Kind{KindFDPing, KindFDAck} {
		e := Envelope{From: 4, To: 1, Round: 17, Kind: k}
		got := roundTrip(t, e)
		if got.Kind != k || got.Round != 17 || got.Payload != nil {
			t.Errorf("%v mismatch: %+v", k, got)
		}
	}
	info := RingInfo{Origins: []RingOrigin{{Proc: 1, Seq: 9}, {Proc: 3, Seq: 120}}}
	e, err := EnvelopeFor(2, 3, 5, info)
	if err != nil {
		t.Fatal(err)
	}
	if e.Kind != KindFDRing {
		t.Fatalf("EnvelopeFor inferred kind %v", e.Kind)
	}
	got := roundTrip(t, e)
	if !reflect.DeepEqual(got.Payload, info) {
		t.Errorf("ring payload mismatch: %#v", got.Payload)
	}
	// An empty digest round-trips too (decode yields zero origins).
	empty := roundTrip(t, Envelope{From: 1, To: 2, Round: 1, Kind: KindFDRing, Payload: RingInfo{}})
	if ri, ok := empty.Payload.(RingInfo); !ok || len(ri.Origins) != 0 {
		t.Errorf("empty ring digest: %#v", empty.Payload)
	}
}
