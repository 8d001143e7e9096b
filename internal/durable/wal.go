package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"mkse/internal/bitindex"
	"mkse/internal/core"
)

// The write-ahead log is a sequence of self-delimiting records:
//
//	| u32 payload length (LE) | u32 CRC-32C of payload (LE) | payload |
//
// The CRC makes a torn write (a crash mid-append) detectable: recovery
// replays records until the first one whose frame is short or whose checksum
// fails, and treats that point as the end of the log. Each payload is one
// mutation, encoded by the append*Op functions and decoded by decodeOp.

// recordHeaderSize is the fixed frame prefix: length + CRC.
const recordHeaderSize = 8

// MaxRecordSize bounds a single WAL record (64 MiB, matching the protocol
// frame limit): large enough for any upload a peer can deliver, small enough
// that a corrupted length field cannot demand an absurd allocation.
const MaxRecordSize = 64 << 20

// MaxOpSize bounds the mutations the engine accepts for logging, one
// mebibyte under MaxRecordSize. The headroom guarantees every logged
// record — even one carrying a maximal document — fits inside a single
// replication frame (protocol.MaxFrameSize, also 64 MiB) with envelope
// overhead to spare, so a follower can never be wedged behind a record too
// large to ship.
const MaxOpSize = MaxRecordSize - 1<<20

// castagnoli is the CRC-32C polynomial table (the checksum used by iSCSI,
// ext4 and most storage engines; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorruptRecord reports a WAL record that cannot be decoded: a truncated
// frame, an oversized length, or a checksum mismatch. During recovery it
// marks the end of the usable log.
var ErrCorruptRecord = errors.New("durable: corrupt WAL record")

// AppendRecord appends one framed record carrying payload to dst.
func AppendRecord(dst, payload []byte) ([]byte, error) {
	if len(payload) > MaxRecordSize {
		return dst, fmt.Errorf("durable: record of %d bytes exceeds maximum %d", len(payload), MaxRecordSize)
	}
	var hdr [recordHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...), nil
}

// DecodeRecord decodes the first record in b, returning its payload (an
// alias into b, not a copy) and the total number of bytes the record
// occupies. Any malformed input — short header, length beyond MaxRecordSize,
// payload extending past b, CRC mismatch — returns ErrCorruptRecord; no
// input can cause a panic or an allocation proportional to a corrupt length
// field.
func DecodeRecord(b []byte) (payload []byte, n int, err error) {
	if len(b) < recordHeaderSize {
		return nil, 0, fmt.Errorf("%w: %d-byte frame header", ErrCorruptRecord, len(b))
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	if length > MaxRecordSize {
		return nil, 0, fmt.Errorf("%w: implausible length %d", ErrCorruptRecord, length)
	}
	if uint64(len(b)-recordHeaderSize) < uint64(length) {
		return nil, 0, fmt.Errorf("%w: truncated payload", ErrCorruptRecord)
	}
	payload = b[recordHeaderSize : recordHeaderSize+int(length)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	return payload, recordHeaderSize + int(length), nil
}

// Operation kinds carried in record payloads.
const (
	opUpload byte = 1
	opDelete byte = 2
	// opTerm is a control record: the engine's promotion (fencing) term was
	// raised to the carried value at this log position. It mutates no
	// documents, but it occupies a position like any record, so it ships to
	// followers through the ordinary replication stream — which is how a
	// follower durably learns the new term after a promotion.
	opTerm byte = 3
)

// walOp is one mutation in the form applyOp consumes: decoded from a log
// record, or built by the engine beside the record it logs.
type walOp struct {
	kind  byte
	docID string                  // opUpload, opDelete
	si    *core.SearchIndex       // opUpload
	doc   *core.EncryptedDocument // opUpload
	term  uint64                  // opTerm
}

// appendUploadOp encodes an upload mutation onto dst.
func appendUploadOp(dst []byte, docID string, levels [][]byte, ciphertext, encKey []byte) []byte {
	dst = append(dst, opUpload)
	dst = appendField(dst, []byte(docID))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(levels)))
	for _, l := range levels {
		dst = appendField(dst, l)
	}
	dst = appendField(dst, ciphertext)
	return appendField(dst, encKey)
}

// appendDeleteOp encodes a delete mutation onto dst.
func appendDeleteOp(dst []byte, docID string) []byte {
	dst = append(dst, opDelete)
	return appendField(dst, []byte(docID))
}

// appendTermOp encodes a term-bump control record onto dst.
func appendTermOp(dst []byte, term uint64) []byte {
	dst = append(dst, opTerm)
	return binary.LittleEndian.AppendUint64(dst, term)
}

func appendField(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

// decodeOp parses a record payload into a walOp. An upload's index levels
// are unmarshaled and its ciphertext and key copied out of b, so a retained
// op pins neither a whole segment nor a wire batch in memory.
func decodeOp(b []byte) (*walOp, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty operation", ErrCorruptRecord)
	}
	op := &walOp{kind: b[0]}
	rest := b[1:]
	if op.kind == opTerm {
		if len(rest) != 8 {
			return nil, fmt.Errorf("%w: term record of %d payload bytes", ErrCorruptRecord, len(rest))
		}
		op.term = binary.LittleEndian.Uint64(rest)
		return op, nil
	}
	id, rest, err := cutField(rest)
	if err != nil {
		return nil, err
	}
	op.docID = string(id)
	switch op.kind {
	case opDelete:
	case opUpload:
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: truncated level count", ErrCorruptRecord)
		}
		n := binary.LittleEndian.Uint32(rest)
		rest = rest[4:]
		// A level is at least its 4-byte length field; bounding the count by
		// the remaining bytes stops a corrupt header from forcing a huge
		// slice allocation.
		if uint64(n) > uint64(len(rest))/4 {
			return nil, fmt.Errorf("%w: implausible level count %d", ErrCorruptRecord, n)
		}
		op.si = &core.SearchIndex{DocID: op.docID, Levels: make([]*bitindex.Vector, n)}
		for i := range op.si.Levels {
			var raw []byte
			if raw, rest, err = cutField(rest); err != nil {
				return nil, err
			}
			v := new(bitindex.Vector)
			if err := v.UnmarshalBinary(raw); err != nil {
				return nil, fmt.Errorf("%w: level %d: %v", ErrCorruptRecord, i+1, err)
			}
			op.si.Levels[i] = v
		}
		var ct, key []byte
		if ct, rest, err = cutField(rest); err != nil {
			return nil, err
		}
		if key, rest, err = cutField(rest); err != nil {
			return nil, err
		}
		op.doc = &core.EncryptedDocument{
			ID:         op.docID,
			Ciphertext: append([]byte(nil), ct...),
			EncKey:     append([]byte(nil), key...),
		}
	default:
		return nil, fmt.Errorf("%w: unknown operation kind %d", ErrCorruptRecord, op.kind)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorruptRecord, len(rest))
	}
	return op, nil
}

func cutField(b []byte) (field, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("%w: truncated field length", ErrCorruptRecord)
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-4) {
		return nil, nil, fmt.Errorf("%w: field of %d bytes in %d remaining", ErrCorruptRecord, n, len(b)-4)
	}
	return b[4 : 4+int(n)], b[4+int(n):], nil
}
