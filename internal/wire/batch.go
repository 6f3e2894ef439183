package wire

import "encoding/binary"

// Batch container. The shared-mesh engine coalesces many encoded envelopes
// into one transport packet per link (count/time-threshold flush, see
// runtime.Batcher); the container is
//
//	0x00 | (uvarint frame-length | frame bytes)*
//
// A real envelope can never start with 0x00 — its first byte is the
// sender's uvarint process id, and process ids are ≥ 1 — so the marker byte
// distinguishes a batch from a bare envelope without touching the
// single-message encoding. SplitBatch accepts both forms, which keeps every
// receiver (engine receive functions, single-instance nodes, middleware)
// agnostic to whether the sending side batches.

// batchMarker is the leading byte of a batch packet.
const batchMarker = 0x00

// IsBatch reports whether data is a batch container rather than a bare
// envelope frame.
func IsBatch(data []byte) bool {
	return len(data) > 0 && data[0] == batchMarker
}

// AppendToBatch appends one encoded envelope frame to a batch buffer,
// starting the container when the buffer is empty. The returned slice is
// the (possibly reallocated) batch.
func AppendToBatch(batch, frame []byte) []byte {
	if len(batch) == 0 {
		batch = append(batch, batchMarker)
	}
	batch = appendUvarint(batch, uint64(len(frame)))
	return append(batch, frame...)
}

// SplitBatch invokes fn for every envelope frame inside data — once with
// data itself when it is a bare (unbatched) frame. fn's slices alias data
// and must not be retained past the call. A malformed container returns
// ErrTruncated; fn's first error aborts the walk.
func SplitBatch(data []byte, fn func(frame []byte) error) error {
	if !IsBatch(data) {
		if len(data) == 0 {
			return ErrTruncated
		}
		return fn(data)
	}
	pos := 1
	for pos < len(data) {
		l, n := binary.Uvarint(data[pos:])
		if n <= 0 || uint64(len(data)-pos-n) < l {
			return ErrTruncated
		}
		pos += n
		if err := fn(data[pos : pos+int(l)]); err != nil {
			return err
		}
		pos += int(l)
	}
	return nil
}

// BatchLen counts the envelope frames in data (1 for a bare frame). It
// returns 0 for a malformed container.
func BatchLen(data []byte) int {
	count := 0
	if err := SplitBatch(data, func([]byte) error { count++; return nil }); err != nil {
		return 0
	}
	return count
}
