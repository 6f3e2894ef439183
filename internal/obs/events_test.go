package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// sampleEvents is FloodSet in RS with p1 crashing in round 1 after reaching
// only p2, in the vocabulary the round engines and the live runtime share.
func sampleEvents() []Event {
	return []Event{
		{Type: EventRunStart, Algorithm: "FloodSet", Model: "RS", N: 3, T: 1, Values: []int64{0, 5, 9}},
		{Type: EventRoundStart, Round: 1, Proc: 1},
		{Type: EventSend, Round: 1, From: 1, To: []int{2, 3}},
		{Type: EventRoundStart, Round: 1, Proc: 2},
		{Type: EventSend, Round: 1, From: 2, To: []int{1, 3}},
		{Type: EventRoundStart, Round: 1, Proc: 3},
		{Type: EventSend, Round: 1, From: 3, To: []int{1, 2}},
		{Type: EventCrash, Round: 1, Proc: 1},
		{Type: EventRecv, Round: 1, Proc: 2, Peers: []int{1, 3}},
		{Type: EventRecv, Round: 1, Proc: 3, Peers: []int{2}},
		{Type: EventRoundStart, Round: 2, Proc: 2},
		{Type: EventSend, Round: 2, From: 2, To: []int{3}},
		{Type: EventRoundStart, Round: 2, Proc: 3},
		{Type: EventSend, Round: 2, From: 3, To: []int{2}},
		{Type: EventRecv, Round: 2, Proc: 2, Peers: []int{3}},
		{Type: EventRecv, Round: 2, Proc: 3, Peers: []int{2}},
		{Type: EventDecide, Round: 2, Proc: 2, Value: Int64(0)},
		{Type: EventDecide, Round: 2, Proc: 3, Value: Int64(0)},
		{Type: EventRunEnd},
	}
}

func TestEmitterRoundTrip(t *testing.T) {
	events := sampleEvents()
	var buf bytes.Buffer
	em := NewEmitter(&buf)
	for _, ev := range events {
		em.Emit(ev)
	}
	if err := em.Err(); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(buf.String(), "\n"); lines != len(events) {
		t.Errorf("emitted %d lines, want %d", lines, len(events))
	}
	back, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, events) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", back, events)
	}
}

func TestReadEventsRejectsGarbage(t *testing.T) {
	if _, err := ReadEvents(strings.NewReader("{\"type\":\"crash\"}\nnot json\n")); err == nil {
		t.Error("garbage line accepted")
	}
}

func TestCollectorAndMultiSink(t *testing.T) {
	var a, b Collector
	s := MultiSink(&a, nil, &b)
	events := sampleEvents()
	for _, ev := range events {
		s.Emit(ev)
	}
	if !reflect.DeepEqual(a.Events(), events) || !reflect.DeepEqual(b.Events(), events) {
		t.Errorf("fanout: a=%d b=%d events, want %d each in order", len(a.Events()), len(b.Events()), len(events))
	}
}
