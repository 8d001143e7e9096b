package store

import (
	"bytes"
	"encoding/gob"
	"math/big"
	"path/filepath"
	"reflect"
	"testing"

	"mkse/internal/core"
	"mkse/internal/corpus"
)

// The full owner round trip: everything that matters — trapdoors, blind
// decryption of previously encrypted documents, user registry — must
// survive persistence.
func TestOwnerSaveLoadRoundTrip(t *testing.T) {
	p := core.DefaultParams()
	p.Bins = 16
	owner, err := core.NewOwner(p, 7)
	if err != nil {
		t.Fatal(err)
	}

	doc := &corpus.Document{ID: "persist-doc", TermFreqs: map[string]int{"alpha": 3}, Content: []byte("contents survive restarts")}
	_, enc, err := owner.Prepare(doc)
	if err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser("persist-user", p, owner.PublicKey(), owner.RandomTrapdoors())
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.RegisterUser(user.ID, user.PublicKey()); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveOwner(&buf, owner); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadOwner(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Same trapdoors (bin keys survived).
	if !restored.Trapdoor("alpha").Equal(owner.Trapdoor("alpha")) {
		t.Error("trapdoors differ after restore")
	}
	// Same decoy trapdoors (random words + keys survived).
	a, b := owner.RandomTrapdoors(), restored.RandomTrapdoors()
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("decoy trapdoor %d differs after restore", i)
		}
	}
	// Blind decryption of a pre-restart document still works.
	pt, err := user.DecryptDocument(&core.EncryptedDocument{ID: doc.ID, Ciphertext: enc.Ciphertext, EncKey: enc.EncKey},
		func(z *big.Int) (*big.Int, error) { return restored.BlindDecrypt(z) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, doc.Content) {
		t.Error("pre-restart document does not decrypt after restore")
	}
	// User registry survived: the old signature still verifies.
	msg := []byte("post-restart request")
	sig, err := user.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.VerifyUser(user.ID, msg, sig); err != nil {
		t.Errorf("registered user rejected after restore: %v", err)
	}
	// Document key bookkeeping survived.
	if _, ok := restored.DocumentKey(doc.ID); !ok {
		t.Error("document key missing after restore")
	}
}

func TestOwnerSaveLoadFile(t *testing.T) {
	p := core.DefaultParams()
	p.Bins = 8
	owner, err := core.NewOwner(p, 9)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "owner.state")
	if err := SaveOwnerFile(path, owner); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadOwnerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Trapdoor("w").Equal(owner.Trapdoor("w")) {
		t.Error("file round trip lost key material")
	}
}

func TestLoadOwnerRejectsServerSnapshot(t *testing.T) {
	_, srv, _ := populatedServer(t)
	var buf bytes.Buffer
	if err := Save(&buf, srv); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOwner(&buf); err == nil {
		t.Error("server snapshot accepted as owner state")
	}
}

func TestLoadOwnerRejectsGarbage(t *testing.T) {
	if _, err := LoadOwner(bytes.NewReader([]byte("MKSEOWN1 not gob at all"))); err == nil {
		t.Error("garbage owner state accepted")
	}
	if _, err := LoadOwner(bytes.NewReader(nil)); err == nil {
		t.Error("empty owner state accepted")
	}
}

// epochOwnerState mirrors core.OwnerState as it was written while bin keys
// could rotate and trapdoors could be served as keyword vectors: it also
// carried the key epoch and the keyword dictionary.
type epochOwnerState struct {
	Params      core.Params
	Epoch       int64
	RSAKeyDER   []byte
	BinKeys     [][]byte
	RandomWords []string
	DocKeys     map[string][]byte
	Users       map[string][]byte
	Dictionary  []string
}

func TestLoadOwnerReadsEpochState(t *testing.T) {
	p := core.DefaultParams()
	p.Bins = 16
	owner, err := core.NewOwner(p, 11)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := owner.Prepare(&corpus.Document{ID: "old-doc", TermFreqs: map[string]int{"alpha": 2}, Content: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	user, err := core.NewUser("old-user", p, owner.PublicKey(), owner.RandomTrapdoors())
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.RegisterUser(user.ID, user.PublicKey()); err != nil {
		t.Fatal(err)
	}
	st := owner.ExportState()
	var buf bytes.Buffer
	buf.Write(ownerMagic[:])
	if err := gob.NewEncoder(&buf).Encode(&epochOwnerState{
		Params: st.Params, Epoch: 2, RSAKeyDER: st.RSAKeyDER, BinKeys: st.BinKeys,
		RandomWords: st.RandomWords, DocKeys: st.DocKeys, Users: st.Users,
		Dictionary: []string{"alpha", "beta"},
	}); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadOwner(&buf)
	if err != nil {
		t.Fatalf("state written with an epoch and a dictionary does not load: %v", err)
	}
	all := make([]int, p.Bins)
	for i := range all {
		all[i] = i
	}
	want, err := owner.TrapdoorKeys(all)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.TrapdoorKeys(all)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("bin keys differ after loading an epoch-carrying state")
	}
	if !reflect.DeepEqual(restored.ExportState(), st) {
		t.Error("users, document keys or key material differ after loading an epoch-carrying state")
	}
}
