package store

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"mkse/internal/core"
)

// ownerMagic distinguishes owner-state files from server snapshots.
var ownerMagic = [8]byte{'M', 'K', 'S', 'E', 'O', 'W', 'N', '1'}

// SaveOwner persists the owner's secret state. The output contains every
// secret of the deployment (bin keys, RSA private key, document keys);
// protect it accordingly.
func SaveOwner(w io.Writer, o *core.Owner) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(ownerMagic[:]); err != nil {
		return err
	}
	if err := gob.NewEncoder(bw).Encode(o.ExportState()); err != nil {
		return fmt.Errorf("store: encoding owner state: %w", err)
	}
	return bw.Flush()
}

// LoadOwner restores an owner from SaveOwner output.
func LoadOwner(r io.Reader) (*core.Owner, error) {
	br := bufio.NewReader(r)
	var got [8]byte
	if _, err := io.ReadFull(br, got[:]); err != nil {
		return nil, fmt.Errorf("store: reading owner magic: %w", err)
	}
	if got != ownerMagic {
		return nil, fmt.Errorf("%w: not an owner-state file", ErrBadSnapshot)
	}
	var st core.OwnerState
	if err := gob.NewDecoder(br).Decode(&st); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return core.RestoreOwner(&st)
}

// SaveOwnerFile writes owner state to path atomically with 0600
// permissions (see WriteFileSync).
func SaveOwnerFile(path string, o *core.Owner) error {
	return WriteFileSync(path, 0o600, func(w io.Writer) error { return SaveOwner(w, o) })
}

// LoadOwnerFile reads owner state from path.
func LoadOwnerFile(path string) (*core.Owner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadOwner(f)
}
