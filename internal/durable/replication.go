package durable

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"mkse/internal/core"
	"mkse/internal/store"
)

// This file is the engine's replication surface: everything a WAL-shipping
// primary needs to serve its log to followers (Position, OldestRetained,
// ReadWAL, WaitWAL, ReadCheckpoint) and everything a follower needs to
// replay it durably (ApplyReplicated, ResetToCheckpoint). The wire protocol
// and the streaming loops live in internal/service; this layer only moves
// records and snapshots in and out of the directory.

// ErrTruncatedHistory reports a ReadWAL position older than the oldest log
// record the engine still retains — checkpointing has pruned the segments
// that held it. A follower hitting this must bootstrap from a checkpoint
// (ReadCheckpoint) instead of replaying records.
var ErrTruncatedHistory = errors.New("durable: requested WAL position has been pruned")

// ErrNoCheckpoint reports that the directory holds no readable checkpoint.
var ErrNoCheckpoint = errors.New("durable: no checkpoint on disk")

// Position returns the engine's log sequence number: the number of
// mutations it has logged (and applied) over the directory's lifetime. It
// is the position a follower resumes streaming from after a restart.
func (e *Engine) Position() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.lsn
}

// OldestRetained returns the position of the oldest log record still on
// disk. Positions below it can only be reached through a checkpoint.
func (e *Engine) OldestRetained() uint64 {
	_, segs, err := scanDir(e.dir)
	if err == nil && len(segs) > 0 {
		return segs[0]
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.segStart
}

// ReadWAL returns consecutive logged record payloads starting at position
// from: result[i] is the mutation at from+i, and next is the position after
// the last returned record. It reads until roughly maxBytes of payload have
// been collected (always at least one record when any is available) and
// returns an empty batch with next == from when the log has nothing past
// from yet. A position below OldestRetained returns ErrTruncatedHistory.
// The returned slices alias freshly read file buffers and are valid
// indefinitely, but retaining them pins those buffers.
func (e *Engine) ReadWAL(from uint64, maxBytes int) (records [][]byte, next uint64, err error) {
	e.mu.Lock()
	end := e.lsn
	liveStart, liveSize := e.segStart, e.segSize
	e.mu.Unlock()
	if from >= end {
		return nil, from, nil
	}

	_, segs, err := scanDir(e.dir)
	if err != nil {
		return nil, from, err
	}
	// The starting segment is the one with the largest start position <= from.
	start := -1
	for i, s := range segs {
		if s <= from {
			start = i
		} else {
			break
		}
	}
	if start < 0 {
		return nil, from, fmt.Errorf("%w: need %d, oldest retained segment starts at %d", ErrTruncatedHistory, from, e.OldestRetained())
	}

	var out [][]byte
	outBytes := 0
	pos := segs[start]
	for i := start; i < len(segs) && pos < end; i++ {
		data, rerr := os.ReadFile(filepath.Join(e.dir, segName(segs[i])))
		if rerr != nil {
			if os.IsNotExist(rerr) {
				// Cleanup pruned it between the scan and the read; the caller
				// must fall back to a checkpoint.
				return nil, from, fmt.Errorf("%w: segment %d pruned during read", ErrTruncatedHistory, segs[i])
			}
			return nil, from, fmt.Errorf("durable: reading WAL for replication: %w", rerr)
		}
		// The live segment may hold a partial frame past the committed size
		// captured above; never read beyond it.
		if segs[i] == liveStart && int64(len(data)) > liveSize {
			data = data[:liveSize]
		}
		off := 0
		for off < len(data) && pos < end {
			payload, n, derr := DecodeRecord(data[off:])
			if derr != nil {
				return nil, from, fmt.Errorf("durable: %s: record at offset %d while streaming: %w", segName(segs[i]), off, derr)
			}
			if pos >= from {
				// Stop before the budget is exceeded (never mid-batch past
				// it), so a caller's batch bound is hard; an oversized first
				// record still ships alone.
				if len(out) > 0 && outBytes+len(payload) > maxBytes {
					return out, from + uint64(len(out)), nil
				}
				out = append(out, payload)
				outBytes += len(payload)
			}
			off += n
			pos++
		}
	}
	return out, from + uint64(len(out)), nil
}

// WaitWAL blocks until the engine's position exceeds from, the timeout
// elapses, or the engine closes. It returns true only when new records are
// available — the poll/park primitive replication streams idle on between
// batches.
func (e *Engine) WaitWAL(from uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		e.mu.Lock()
		if e.lsn > from {
			e.mu.Unlock()
			return true
		}
		if e.closing {
			e.mu.Unlock()
			// Shutdown: no new records will ever arrive. Sleep the timeout
			// out so callers polling in a loop (replication streams waiting
			// for their connection to die) stay paced instead of spinning.
			if remain := time.Until(deadline); remain > 0 {
				time.Sleep(remain)
			}
			return false
		}
		ch := e.notify
		e.mu.Unlock()

		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-e.done:
			t.Stop()
			return false
		case <-t.C:
			return false
		}
	}
}

// ReadCheckpoint returns the raw bytes of the newest readable checkpoint
// file and the position it covers, for shipping to a bootstrapping
// follower. ErrNoCheckpoint means the directory has none (the whole history
// is still in the log).
func (e *Engine) ReadCheckpoint() ([]byte, uint64, error) {
	ckpts, _, err := scanDir(e.dir)
	if err != nil {
		return nil, 0, err
	}
	for i := len(ckpts) - 1; i >= 0; i-- {
		data, rerr := os.ReadFile(filepath.Join(e.dir, ckptName(ckpts[i])))
		if rerr == nil {
			return data, ckpts[i], nil
		}
	}
	return nil, 0, ErrNoCheckpoint
}

// ApplyReplicated logs and applies one record payload shipped from a
// primary, advancing the follower's position by one. The payload is decoded
// and validated before it touches the log, so only mutations that cannot
// fail to apply are recorded — the same invariant Upload and Delete keep —
// which makes the follower's own directory crash-safe and promotable.
// Records must be applied in log order; the caller aligns the stream with
// Position.
func (e *Engine) ApplyReplicated(payload []byte) error {
	// Replication has no originating request to adopt a trace from, so the
	// apply stream head-samples itself: 1 in N applies becomes a one-span
	// trace in the follower's buffer. The log append below gets a background
	// context, so it adds no span to that trace.
	_, root := e.tracer.Load().StartRequest(context.Background(), "replication.apply", false)
	op, err := decodeOp(payload)
	if err != nil {
		return fmt.Errorf("durable: replicated record: %w", err)
	}
	var si *core.SearchIndex
	var doc *core.EncryptedDocument
	if op.kind == opUpload {
		if si, doc, err = decodeUploadOp(op); err != nil {
			return fmt.Errorf("durable: replicated upload: %w", err)
		}
		// Params are immutable after Open, so validating outside e.mu is safe.
		if err := si.Validate(e.srv.Params()); err != nil {
			return fmt.Errorf("durable: replicated upload rejected (parameter mismatch with primary?): %w", err)
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closing {
		return ErrClosed
	}
	pos := e.lsn // this record's position
	if err := e.logLocked(context.Background(), payload); err != nil {
		return err
	}
	switch op.kind {
	case opDelete:
		if err := e.srv.Delete(string(op.docID)); err != nil && !errors.Is(err, core.ErrNotFound) {
			return err
		}
	case opUpload:
		if err := e.srv.Upload(si, doc); err != nil {
			return err // unreachable given the validation above
		}
	case opTerm:
		// A replicated term bump is how a follower durably learns its
		// primary's new term. Like SetTerm, it must survive a crash whatever
		// the fsync policy — a follower that forgot the term would accept a
		// zombie's stream after restarting.
		if op.term > e.term {
			if err := e.syncLocked(context.Background()); err != nil {
				return err
			}
			e.term, e.termStart = op.term, pos
		}
	}
	e.noteOpLocked()
	if root != nil {
		root.SetAttr("kind", opKindName(op.kind))
		root.SetAttr("position", strconv.FormatUint(pos, 10))
	}
	root.End()
	return nil
}

// opKindName names a WAL op kind for trace attributes.
func opKindName(k byte) string {
	switch k {
	case opUpload:
		return "upload"
	case opDelete:
		return "delete"
	case opTerm:
		return "term"
	}
	return "unknown"
}

// BootstrapCheckpoint cuts a fresh checkpoint — even when the engine is
// unchanged since the last one — and returns its raw bytes and covered
// position. It is the primary's answer to a rejoining follower whose history
// has diverged (its position exceeds the primary's term start): such a
// follower cannot replay records and must be replaced wholesale via
// ResetToCheckpoint.
func (e *Engine) BootstrapCheckpoint() ([]byte, uint64, error) {
	if err := e.checkpoint(true); err != nil {
		return nil, 0, err
	}
	return e.ReadCheckpoint()
}

// ResetToCheckpoint replaces the engine's entire state — in memory and on
// disk — with a checkpoint shipped from a primary, leaving the engine at
// position lsn with an empty log tail. It is the follower's bootstrap path
// when the primary has pruned the records between them. The snapshot is
// fully parsed and validated before any local state is touched, and its
// parameters must equal the engine's. The in-memory server is rebuilt in
// place (readers holding the *core.Server keep working, though they observe
// the intermediate states of the swap), so a follower can bootstrap while
// serving.
func (e *Engine) ResetToCheckpoint(data []byte, lsn uint64) error {
	// Parse into a scratch server first: a malformed or mismatched snapshot
	// must not destroy the local state it was meant to replace.
	params := e.srv.Params()
	loaded, meta, err := store.LoadCheckpointBytes(data, func(p core.Params) (*core.Server, error) {
		if !p.Equal(params) {
			return nil, fmt.Errorf("durable: checkpoint parameters differ from this engine's (follower must be started with the primary's scheme parameters)")
		}
		return core.NewServerSharded(p, e.opts.Shards, e.opts.Workers)
	})
	if err != nil {
		return fmt.Errorf("durable: bootstrap checkpoint: %w", err)
	}
	if meta.LSN != lsn {
		return fmt.Errorf("durable: bootstrap checkpoint covers position %d, primary announced %d", meta.LSN, lsn)
	}

	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closing {
		return ErrClosed
	}

	// Install the checkpoint file first: if we crash anywhere past this
	// point, Open finds it, skips every older segment (all their records are
	// below lsn) and recovers at exactly lsn.
	path := filepath.Join(e.dir, ckptName(lsn))
	if err := store.WriteFileSync(path, 0o666, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return fmt.Errorf("durable: installing bootstrap checkpoint: %w", err)
	}
	if err := syncDir(e.dir); err != nil {
		return err
	}

	// Swap the in-memory state in place so readers keep a valid server.
	for _, id := range e.srv.DocumentIDs() {
		if derr := e.srv.Delete(id); derr != nil && !errors.Is(derr, core.ErrNotFound) {
			return derr
		}
	}
	err = loaded.Export(func(si *core.SearchIndex, doc *core.EncryptedDocument) error {
		return e.srv.Upload(si, doc)
	})
	if err != nil {
		return fmt.Errorf("durable: installing bootstrap state: %w", err)
	}

	// Start a fresh segment at lsn and drop the superseded files.
	if err := e.f.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(e.dir, segName(lsn)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: opening post-bootstrap WAL segment: %w", err)
	}
	if err := syncDir(e.dir); err != nil {
		f.Close()
		return err
	}
	e.f = f
	e.segStart = lsn
	e.segSize = 0
	e.lsn = lsn
	// The checkpoint replaces the whole local history, term included — the
	// shipped snapshot is now this engine's only provenance.
	e.term, e.termStart = meta.Term, meta.TermStart
	e.opsSinceCkpt = 0
	e.dirty = false
	e.broken = false
	e.stats.LSN = lsn
	e.stats.CheckpointLSN = lsn

	ckpts, segs, err := scanDir(e.dir)
	if err == nil {
		for _, c := range ckpts {
			if c != lsn {
				os.Remove(filepath.Join(e.dir, ckptName(c)))
			}
		}
		for _, s := range segs {
			if s != lsn {
				os.Remove(filepath.Join(e.dir, segName(s)))
			}
		}
	}
	logf(e.opts.Logger, "durable: bootstrapped from primary checkpoint at position %d (%d documents)", lsn, e.srv.NumDocuments())
	return nil
}
