// Package wire defines the binary message format of the live runtime
// (package runtime): a compact, self-describing encoding of the round-model
// messages of packages consensus and nbac, plus the runtime's own control
// messages (heartbeats). The format is hand-rolled on encoding/binary
// varints — no reflection, no schema registry — so a frame is cheap to
// encode and decode on the hot path of a round.
//
// Envelope layout (all integers unsigned varints unless noted):
//
//	from | to | round | kind | payload... | [instance]
//
// Decoding is two steps a receiver may take apart: Split validates a frame
// and returns its header and raw payload bytes without allocating, and
// DecodePayload builds the payload. Decode is the two in sequence. TCP
// framing adds a uvarint length prefix in front of each envelope.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/consensus"
	"repro/internal/model"
	"repro/internal/nbac"
	"repro/internal/rounds"
)

// Packet is a raw frame as seen by a transport endpoint: the sender's
// identity plus the encoded envelope bytes. It lives here (rather than in
// package runtime) so that transport middleware — the fault injectors of
// package faults — can be written against the wire format without
// importing the runtime.
type Packet struct {
	From model.ProcessID
	Data []byte
}

// Kind tags the payload type of an envelope.
type Kind byte

// Payload kinds.
const (
	// KindNull is a round message with a null payload (the round model's
	// "no message", transmitted explicitly so receivers can distinguish
	// silence from crash).
	KindNull Kind = iota + 1
	// KindW is consensus.WMsg: a set of values.
	KindW
	// KindD is consensus.DMsg: a forced decision.
	KindD
	// KindA1Val is consensus.A1Val.
	KindA1Val
	// KindA1Fwd is consensus.A1Fwd.
	KindA1Fwd
	// KindVotes is nbac.VotesMsg.
	KindVotes
	// KindHeartbeat is the failure detector's liveness beacon (round field
	// carries the heartbeat sequence number).
	KindHeartbeat
	// KindFDPing is a bounded-message detector's liveness query (round field
	// carries the ping sequence number). Unlike the blind heartbeat beacon it
	// is sent only when the observer has heard nothing recently, and resent
	// only on timeout — the ADD-channel construction's message bound.
	KindFDPing
	// KindFDAck answers a KindFDPing (round field echoes the ping sequence).
	KindFDAck
	// KindFDRing is the logical-ring detector's forwarded liveness digest:
	// the payload (RingInfo) carries per-origin sequence numbers the sender
	// vouches for, so liveness evidence travels the ring in O(n) messages
	// per period instead of all-to-all broadcast.
	KindFDRing
)

// MaxKind is the largest assigned kind tag — the bound for per-kind tables.
const MaxKind = KindFDRing

// Kinds lists every payload kind in tag order — the iteration order of
// per-kind telemetry and the golden wire-size table.
func Kinds() []Kind {
	return []Kind{KindNull, KindW, KindD, KindA1Val, KindA1Fwd, KindVotes, KindHeartbeat,
		KindFDPing, KindFDAck, KindFDRing}
}

// Control reports whether the kind is runtime control traffic (failure-
// detector beacons, queries and digests) rather than a round-model message.
// A node's receive function hands control envelopes to the detector and never
// files them as round messages.
func (k Kind) Control() bool {
	switch k {
	case KindHeartbeat, KindFDPing, KindFDAck, KindFDRing:
		return true
	}
	return false
}

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindW:
		return "W"
	case KindD:
		return "D"
	case KindA1Val:
		return "A1Val"
	case KindA1Fwd:
		return "A1Fwd"
	case KindVotes:
		return "Votes"
	case KindHeartbeat:
		return "heartbeat"
	case KindFDPing:
		return "fdping"
	case KindFDAck:
		return "fdack"
	case KindFDRing:
		return "fdring"
	default:
		return fmt.Sprintf("Kind(%d)", byte(k))
	}
}

// RingOrigin is one process's liveness evidence inside a ring digest: the
// freshest heartbeat sequence number the digest's sender can vouch for.
type RingOrigin struct {
	Proc model.ProcessID
	Seq  uint64
}

// RingInfo is the KindFDRing payload: the set of origins (with per-origin
// sequence numbers) whose liveness the sender forwards around the logical
// ring. It lives here rather than in the detector package so the wire
// format stays closed under its own kinds (the detector implementations
// import wire, never the reverse).
type RingInfo struct {
	Origins []RingOrigin
}

// Envelope is one framed message.
type Envelope struct {
	From, To model.ProcessID
	Round    int
	Kind     Kind
	// Instance identifies which consensus instance the message belongs to
	// when many instances multiplex one physical mesh (the shared-mesh
	// engine, runtime.Engine). Instance 0 — the single-instance case —
	// costs nothing on the wire: the field is encoded as a trailing varint
	// only when nonzero, so every pre-instance frame is byte-identical and
	// decodes with Instance == 0.
	Instance uint64
	// Payload is the decoded round-model message (nil for KindNull and
	// KindHeartbeat).
	Payload rounds.Message
}

// Errors.
var (
	ErrTruncated = errors.New("wire: truncated frame")
	ErrBadKind   = errors.New("wire: unknown payload kind")
)

// appendUvarint appends v to buf.
func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

// appendVarint appends a signed v to buf.
func appendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

// Encode serializes an envelope into a fresh buffer.
func Encode(e Envelope) ([]byte, error) {
	return AppendEnvelope(make([]byte, 0, 64), e)
}

// AppendEnvelope appends e's encoding to buf and returns the extended
// buffer; with enough capacity it allocates nothing. The payload is only
// read. On error the result is nil.
func AppendEnvelope(buf []byte, e Envelope) ([]byte, error) {
	buf = appendUvarint(buf, uint64(e.From))
	buf = appendUvarint(buf, uint64(e.To))
	buf = appendUvarint(buf, uint64(e.Round))
	buf = append(buf, byte(e.Kind))
	buf, err := AppendPayload(buf, e.Kind, e.Payload)
	if err != nil {
		return nil, err
	}
	if e.Instance != 0 {
		// Trailing instance tag: every payload encoding above is
		// self-delimiting, so a decoder knows the tag is present exactly when
		// bytes remain. Omitting it for instance 0 keeps single-instance
		// frames byte-identical to the pre-instance format.
		buf = appendUvarint(buf, e.Instance)
	}
	return buf, nil
}

// AppendPayload appends the encoding of a kind payload — the bytes Split
// returns as a frame's payload — to buf, allocating nothing when buf has the
// capacity. The payload must be the kind's message type, nil for the kinds
// without a payload. On error the result is nil.
func AppendPayload(buf []byte, kind Kind, payload rounds.Message) ([]byte, error) {
	switch kind {
	case KindNull, KindHeartbeat, KindFDPing, KindFDAck:
		if payload != nil {
			return nil, fmt.Errorf("wire: kind %v carries no payload, got %T", kind, payload)
		}
	case KindFDRing:
		m, ok := payload.(RingInfo)
		if !ok {
			return nil, fmt.Errorf("wire: kind fdring with payload %T", payload)
		}
		buf = appendUvarint(buf, uint64(len(m.Origins)))
		for _, o := range m.Origins {
			buf = appendUvarint(buf, uint64(o.Proc))
			buf = appendUvarint(buf, o.Seq)
		}
	case KindW:
		m, ok := payload.(consensus.WMsg)
		if !ok {
			return nil, fmt.Errorf("wire: kind W with payload %T", payload)
		}
		buf = appendUvarint(buf, uint64(m.W.Len()))
		for i := 0; i < m.W.Len(); i++ {
			buf = appendVarint(buf, int64(m.W.At(i)))
		}
	case KindD:
		m, ok := payload.(consensus.DMsg)
		if !ok {
			return nil, fmt.Errorf("wire: kind D with payload %T", payload)
		}
		buf = appendVarint(buf, int64(m.V))
	case KindA1Val:
		m, ok := payload.(consensus.A1Val)
		if !ok {
			return nil, fmt.Errorf("wire: kind A1Val with payload %T", payload)
		}
		buf = appendVarint(buf, int64(m.V))
	case KindA1Fwd:
		m, ok := payload.(consensus.A1Fwd)
		if !ok {
			return nil, fmt.Errorf("wire: kind A1Fwd with payload %T", payload)
		}
		buf = appendVarint(buf, int64(m.V))
	case KindVotes:
		m, ok := payload.(nbac.VotesMsg)
		if !ok {
			return nil, fmt.Errorf("wire: kind Votes with payload %T", payload)
		}
		buf = appendUvarint(buf, uint64(len(m.Known)))
		for _, v := range m.Known {
			buf = appendVarint(buf, int64(v))
		}
	default:
		return nil, fmt.Errorf("%w: %v", ErrBadKind, kind)
	}
	return buf, nil
}

// reader tracks a decode position.
type reader struct {
	buf []byte
	pos int
}

func (r *reader) uvarint() (uint64, error) {
	// Fast path: ids, rounds, element counts and small values are one byte.
	if r.pos < len(r.buf) && r.buf[r.pos] < 0x80 {
		v := uint64(r.buf[r.pos])
		r.pos++
		return v, nil
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		return 0, ErrTruncated
	}
	r.pos += n
	return v, nil
}

// varint reads a zig-zag signed varint (binary.Varint's encoding).
func (r *reader) varint() (int64, error) {
	u, err := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v, err
}

// count reads an element count. Every element of every repeated payload
// takes at least one byte, so a count beyond the bytes that remain is a
// truncated (or hostile) frame — rejected before anything is allocated for it.
func (r *reader) count() (int, error) {
	c, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if c > uint64(len(r.buf)-r.pos) {
		return 0, ErrTruncated
	}
	return int(c), nil
}

// skip steps over k varints by their continuation bits alone, accepting
// exactly what binary.Uvarint accepts: at most ten bytes, the tenth at most 1.
func (r *reader) skip(k int) error {
	for ; k > 0; k-- {
		for n := 0; ; n++ {
			if r.pos >= len(r.buf) || n == binary.MaxVarintLen64 {
				return ErrTruncated
			}
			b := r.buf[r.pos]
			r.pos++
			if b < 0x80 {
				if n == binary.MaxVarintLen64-1 && b > 1 {
					return ErrTruncated
				}
				break
			}
		}
	}
	return nil
}

func (r *reader) byte() (byte, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrTruncated
	}
	b := r.buf[r.pos]
	r.pos++
	return b, nil
}

// Split parses frame's header and validates the whole frame — payload and
// trailing instance included — without building the payload: it returns
// the envelope with a nil Payload and the payload's bytes, which alias
// frame. Split accepts exactly the frames Decode accepts, so
// DecodePayload(e.Kind, payload) cannot fail afterwards. A receiver that
// routes on the header, or has already decoded an identical payload, pays
// no allocation for the frame.
func Split(frame []byte) (Envelope, []byte, error) {
	r := reader{buf: frame}
	var e Envelope
	from, err := r.uvarint()
	if err != nil {
		return e, nil, err
	}
	to, err := r.uvarint()
	if err != nil {
		return e, nil, err
	}
	round, err := r.uvarint()
	if err != nil {
		return e, nil, err
	}
	kb, err := r.byte()
	if err != nil {
		return e, nil, err
	}
	e.From, e.To, e.Round, e.Kind = model.ProcessID(from), model.ProcessID(to), int(round), Kind(kb)
	start := r.pos
	switch e.Kind {
	case KindNull, KindHeartbeat, KindFDPing, KindFDAck:
		// no payload
	case KindD, KindA1Val, KindA1Fwd:
		err = r.skip(1)
	case KindW, KindVotes, KindFDRing:
		var count int
		if count, err = r.count(); err == nil {
			if e.Kind == KindFDRing {
				count *= 2 // (proc, seq) per origin
			}
			err = r.skip(count)
		}
	default:
		return e, nil, fmt.Errorf("%w: %d", ErrBadKind, kb)
	}
	if err != nil {
		return e, nil, err
	}
	payload := frame[start:r.pos]
	if r.pos < len(r.buf) {
		// Every payload is self-delimiting: what remains is the instance tag.
		if e.Instance, err = r.uvarint(); err != nil {
			return e, nil, err
		}
	}
	return e, payload, nil
}

// DecodePayload builds the round-model message of the given kind from its
// encoded bytes (Split's payload: all of data, nothing after it). The
// message owns its storage — it never aliases data (TestDecodeOwnsPayload).
// Kinds without a payload decode to nil.
func DecodePayload(kind Kind, data []byte) (rounds.Message, error) {
	r := reader{buf: data}
	var m rounds.Message
	switch kind {
	case KindNull, KindHeartbeat, KindFDPing, KindFDAck:
		// no payload
	case KindFDRing:
		count, err := r.count()
		if err != nil {
			return nil, err
		}
		origins := make([]RingOrigin, 0, count)
		for i := 0; i < count; i++ {
			proc, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			seq, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			origins = append(origins, RingOrigin{Proc: model.ProcessID(proc), Seq: seq})
		}
		m = RingInfo{Origins: origins}
	case KindW:
		count, err := r.count()
		if err != nil {
			return nil, err
		}
		vals := make([]model.Value, 0, count)
		for i := 0; i < count; i++ {
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			vals = append(vals, model.Value(v))
		}
		// vals is this call's own allocation — never the frame's bytes — and
		// an encoder writes a set in increasing order, so it becomes the set.
		m = consensus.WMsg{W: model.ValueSetOfSorted(vals)}
	case KindD, KindA1Val, KindA1Fwd:
		v, err := r.varint()
		if err != nil {
			return nil, err
		}
		switch kind {
		case KindD:
			m = consensus.DMsg{V: model.Value(v)}
		case KindA1Val:
			m = consensus.A1Val{V: model.Value(v)}
		default:
			m = consensus.A1Fwd{V: model.Value(v)}
		}
	case KindVotes:
		count, err := r.count()
		if err != nil {
			return nil, err
		}
		known := make([]int8, 0, count)
		for i := 0; i < count; i++ {
			v, err := r.varint()
			if err != nil {
				return nil, err
			}
			known = append(known, int8(v))
		}
		m = nbac.VotesMsg{Known: known}
	default:
		return nil, fmt.Errorf("%w: %d", ErrBadKind, byte(kind))
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("wire: %d bytes after the %v payload", len(data)-r.pos, kind)
	}
	return m, nil
}

// Decode parses an envelope: Split, then DecodePayload.
func Decode(data []byte) (Envelope, error) {
	e, payload, err := Split(data)
	if err != nil {
		return e, err
	}
	e.Payload, err = DecodePayload(e.Kind, payload)
	return e, err
}

// PeekControl reports whether data is exactly one bare control frame — what a
// detector puts on the wire. A batch container, a round frame and anything
// that does not decode are all not control. A round frame is turned away at
// its kind byte; only control frames are validated in full.
func PeekControl(data []byte) bool {
	if IsBatch(data) {
		return false
	}
	r := reader{buf: data}
	for i := 0; i < 3; i++ { // from, to, round
		if _, err := r.uvarint(); err != nil {
			return false
		}
	}
	if kb, err := r.byte(); err != nil || !Kind(kb).Control() {
		return false
	}
	_, _, err := Split(data)
	return err == nil
}

// EnvelopeFor wraps a round-model payload, inferring the kind.
func EnvelopeFor(from, to model.ProcessID, round int, payload rounds.Message) (Envelope, error) {
	e := Envelope{From: from, To: to, Round: round, Payload: payload}
	switch payload.(type) {
	case nil:
		e.Kind = KindNull
		e.Payload = nil
	case consensus.WMsg:
		e.Kind = KindW
	case consensus.DMsg:
		e.Kind = KindD
	case consensus.A1Val:
		e.Kind = KindA1Val
	case consensus.A1Fwd:
		e.Kind = KindA1Fwd
	case nbac.VotesMsg:
		e.Kind = KindVotes
	case RingInfo:
		e.Kind = KindFDRing
	default:
		return e, fmt.Errorf("wire: unsupported payload type %T", payload)
	}
	return e, nil
}
