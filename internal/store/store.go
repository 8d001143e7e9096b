// Package store persists a cloud server's database — search indices,
// ciphertexts and wrapped keys — in a versioned binary format, so a
// mkse-server daemon can restart without the owner re-uploading. The format
// stores exactly what the server legitimately holds (Figure 1): nothing in a
// snapshot lets its holder decrypt or search beyond what the live server
// could.
//
// Three on-disk versions exist. V1 ("MKSESTO1") is the bare snapshot
// written by Save. V2 ("MKSESTO2") is the checkpoint format of the durable
// storage engine (internal/durable): the same body prefixed with the
// write-ahead-log sequence number the checkpoint covers, so recovery knows
// where replay starts. V3 ("MKSESTO3") additionally stamps the engine's
// promotion term and the log position where that term began — the fencing
// metadata automatic failover needs to survive log pruning. Load, LoadWith
// and LoadCheckpoint accept all three, which keeps older snapshot files
// loadable (their term reads as zero).
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"mkse/internal/bitindex"
	"mkse/internal/core"
	"mkse/internal/rank"
)

// magicV1, magicV2 and magicV3 identify the snapshot format versions.
var (
	magicV1 = [8]byte{'M', 'K', 'S', 'E', 'S', 'T', 'O', '1'}
	magicV2 = [8]byte{'M', 'K', 'S', 'E', 'S', 'T', 'O', '2'}
	magicV3 = [8]byte{'M', 'K', 'S', 'E', 'S', 'T', 'O', '3'}
)

// CheckpointMeta is the durable-engine metadata stamped into a checkpoint.
type CheckpointMeta struct {
	// LSN is the write-ahead-log sequence number the checkpoint covers:
	// the state reflects exactly mutations [0, LSN).
	LSN uint64
	// Term is the engine's promotion (fencing) term at checkpoint time.
	// Zero for V1/V2 snapshots, which predate automatic failover.
	Term uint64
	// TermStart is the log position where Term began — the position of the
	// term-bump control record, 0 for the initial term. A rejoining node
	// whose own position exceeds the primary's TermStart holds records the
	// new history does not, and must bootstrap instead of streaming.
	TermStart uint64
}

// ErrBadSnapshot is returned for malformed or truncated snapshot data.
var ErrBadSnapshot = errors.New("store: malformed snapshot")

// maxSliceLen bounds any length field read from disk (1 GiB), preventing a
// corrupted header from forcing an absurd allocation.
const maxSliceLen = 1 << 30

// Exporter is the view of a server's state the snapshot writers need.
// *core.Server satisfies it; the durable engine's in-memory checkpoint
// snapshots (captured under lock, serialized after release) do too.
type Exporter interface {
	Params() core.Params
	NumDocuments() int
	Export(func(*core.SearchIndex, *core.EncryptedDocument) error) error
}

// Save snapshots a server's full state to w in the V1 format.
func Save(w io.Writer, srv Exporter) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicV1[:]); err != nil {
		return err
	}
	return saveBody(bw, srv)
}

// SaveCheckpoint snapshots a server's full state to w in the V3 checkpoint
// format: the body of Save prefixed with the LSN (count of write-ahead-log
// records) the state covers plus the promotion term and its start position.
// Recovery replays the log from that record on and resumes at that term.
func SaveCheckpoint(w io.Writer, srv Exporter, meta CheckpointMeta) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magicV3[:]); err != nil {
		return err
	}
	var buf [8]byte
	for _, v := range []uint64{meta.LSN, meta.Term, meta.TermStart} {
		binary.BigEndian.PutUint64(buf[:], v)
		if _, err := bw.Write(buf[:]); err != nil {
			return err
		}
	}
	return saveBody(bw, srv)
}

// saveBody writes the magic-independent part of a snapshot and flushes.
func saveBody(bw *bufio.Writer, srv Exporter) error {
	p := srv.Params()
	if err := writeParams(bw, p); err != nil {
		return err
	}
	if err := writeInt(bw, srv.NumDocuments()); err != nil {
		return err
	}
	err := srv.Export(func(si *core.SearchIndex, doc *core.EncryptedDocument) error {
		if err := writeBytes(bw, []byte(si.DocID)); err != nil {
			return err
		}
		if err := writeInt(bw, len(si.Levels)); err != nil {
			return err
		}
		for _, l := range si.Levels {
			enc, err := l.MarshalBinary()
			if err != nil {
				return err
			}
			if err := writeBytes(bw, enc); err != nil {
				return err
			}
		}
		if err := writeBytes(bw, doc.Ciphertext); err != nil {
			return err
		}
		return writeBytes(bw, doc.EncKey)
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Load reconstructs a server from a snapshot with the default shard layout.
func Load(r io.Reader) (*core.Server, error) {
	return LoadWith(r, core.NewServer)
}

// LoadWith reconstructs a server from a snapshot, building the empty server
// through mk — the hook daemons use to restore into a non-default shard
// layout. The snapshot format is layout-independent. All snapshot and
// checkpoint formats are accepted; the checkpoint's metadata is discarded
// (use LoadCheckpoint to recover it).
func LoadWith(r io.Reader, mk func(core.Params) (*core.Server, error)) (*core.Server, error) {
	srv, _, err := LoadCheckpoint(r, mk)
	return srv, err
}

// LoadCheckpoint reconstructs a server from a snapshot in any format and
// returns the checkpoint metadata it covers (all-zero for a V1 snapshot,
// which predates the log; zero term for V2, which predates failover).
func LoadCheckpoint(r io.Reader, mk func(core.Params) (*core.Server, error)) (*core.Server, CheckpointMeta, error) {
	br := bufio.NewReader(r)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, CheckpointMeta{}, fmt.Errorf("store: reading magic: %w", err)
	}
	var meta CheckpointMeta
	readU64 := func(dst *uint64) error {
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return fmt.Errorf("%w: truncated checkpoint header", ErrBadSnapshot)
		}
		*dst = binary.BigEndian.Uint64(buf[:])
		return nil
	}
	switch got {
	case magicV1:
	case magicV2:
		if err := readU64(&meta.LSN); err != nil {
			return nil, CheckpointMeta{}, err
		}
	case magicV3:
		for _, dst := range []*uint64{&meta.LSN, &meta.Term, &meta.TermStart} {
			if err := readU64(dst); err != nil {
				return nil, CheckpointMeta{}, err
			}
		}
	default:
		return nil, CheckpointMeta{}, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	srv, err := loadBody(br, mk)
	if err != nil {
		return nil, CheckpointMeta{}, err
	}
	return srv, meta, nil
}

// loadBody reads the magic-independent part of a snapshot.
func loadBody(br *bufio.Reader, mk func(core.Params) (*core.Server, error)) (*core.Server, error) {
	p, err := readParams(br)
	if err != nil {
		return nil, err
	}
	srv, err := mk(p)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot parameters: %w", err)
	}
	count, err := readInt(br)
	if err != nil {
		return nil, err
	}
	for i := 0; i < count; i++ {
		id, err := readBytes(br)
		if err != nil {
			return nil, err
		}
		nLevels, err := readInt(br)
		if err != nil {
			return nil, err
		}
		if nLevels <= 0 || nLevels > 1000 {
			return nil, fmt.Errorf("%w: %d levels", ErrBadSnapshot, nLevels)
		}
		levels := make([]*bitindex.Vector, nLevels)
		for j := range levels {
			enc, err := readBytes(br)
			if err != nil {
				return nil, err
			}
			var v bitindex.Vector
			if err := v.UnmarshalBinary(enc); err != nil {
				return nil, fmt.Errorf("%w: level %d of %q: %v", ErrBadSnapshot, j+1, id, err)
			}
			levels[j] = &v
		}
		ct, err := readBytes(br)
		if err != nil {
			return nil, err
		}
		ek, err := readBytes(br)
		if err != nil {
			return nil, err
		}
		si := &core.SearchIndex{DocID: string(id), Levels: levels}
		doc := &core.EncryptedDocument{ID: string(id), Ciphertext: ct, EncKey: ek}
		if err := srv.Upload(si, doc); err != nil {
			return nil, fmt.Errorf("store: restoring %q: %w", id, err)
		}
	}
	return srv, nil
}

// SaveCheckpointFile writes a V3 checkpoint to path atomically, fsyncing the
// file before the rename so a crash cannot leave a live checkpoint name
// pointing at partial data.
func SaveCheckpointFile(path string, srv Exporter, meta CheckpointMeta) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = SaveCheckpoint(f, srv, meta)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadCheckpointBytes reads a snapshot in any format from an in-memory
// buffer and returns the covered metadata. Replication uses it to install a
// checkpoint a follower received over the wire (see LoadCheckpoint).
func LoadCheckpointBytes(data []byte, mk func(core.Params) (*core.Server, error)) (*core.Server, CheckpointMeta, error) {
	return LoadCheckpoint(bytes.NewReader(data), mk)
}

// LoadCheckpointFile reads a snapshot in any format from path and returns
// the covered metadata (see LoadCheckpoint).
func LoadCheckpointFile(path string, mk func(core.Params) (*core.Server, error)) (*core.Server, CheckpointMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, CheckpointMeta{}, err
	}
	defer f.Close()
	return LoadCheckpoint(f, mk)
}

func writeParams(w io.Writer, p core.Params) error {
	for _, v := range []int{p.R, p.D, p.Bins, p.U, p.V, p.RSABits, len(p.Levels)} {
		if err := writeInt(w, v); err != nil {
			return err
		}
	}
	for _, th := range p.Levels {
		if err := writeInt(w, th); err != nil {
			return err
		}
	}
	return nil
}

func readParams(r io.Reader) (core.Params, error) {
	var vals [7]int
	for i := range vals {
		v, err := readInt(r)
		if err != nil {
			return core.Params{}, err
		}
		vals[i] = v
	}
	// Refuse R before mk sizes a server's columns from it: an unchecked
	// 2^30 in a 96-byte corrupt header would allocate gigabytes. Validate
	// enforces the same bound, so every snapshot a server writes loads.
	if r := vals[0]; r > core.MaxR {
		return core.Params{}, fmt.Errorf("%w: %d-bit index in header exceeds %d", ErrBadSnapshot, r, core.MaxR)
	}
	nLevels := vals[6]
	if nLevels <= 0 || nLevels > 1000 {
		return core.Params{}, fmt.Errorf("%w: %d levels in header", ErrBadSnapshot, nLevels)
	}
	levels := make(rank.Levels, nLevels)
	for i := range levels {
		v, err := readInt(r)
		if err != nil {
			return core.Params{}, err
		}
		levels[i] = v
	}
	return core.Params{
		R: vals[0], D: vals[1], Bins: vals[2], U: vals[3], V: vals[4],
		RSABits: vals[5], Levels: levels,
	}, nil
}

func writeInt(w io.Writer, v int) error {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(int64(v)))
	_, err := w.Write(buf[:])
	return err
}

func readInt(r io.Reader) (int, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("%w: truncated", ErrBadSnapshot)
		}
		return 0, err
	}
	v := int64(binary.BigEndian.Uint64(buf[:]))
	if v < 0 || v > maxSliceLen {
		return 0, fmt.Errorf("%w: implausible length %d", ErrBadSnapshot, v)
	}
	return int(v), nil
}

func writeBytes(w io.Writer, b []byte) error {
	if err := writeInt(w, len(b)); err != nil {
		return err
	}
	_, err := w.Write(b)
	return err
}

// readChunk caps how far readBytes grows its buffer ahead of the bytes
// actually read.
const readChunk = 64 << 10

// readBytes reads a length-prefixed field. The buffer grows with the data
// that is really there, at most readChunk at a time, so a corrupt length
// field in a short file cannot force a gigabyte allocation.
func readBytes(r io.Reader) ([]byte, error) {
	n, err := readInt(r)
	if err != nil {
		return nil, err
	}
	b := make([]byte, 0, min(n, readChunk))
	for len(b) < n {
		k := min(n-len(b), readChunk)
		b = slices.Grow(b, k)[:len(b)+k]
		if _, err := io.ReadFull(r, b[len(b)-k:]); err != nil {
			return nil, fmt.Errorf("%w: truncated payload", ErrBadSnapshot)
		}
	}
	return b, nil
}
