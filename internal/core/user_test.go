package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"mkse/internal/bins"
	"mkse/internal/bitindex"
	"mkse/internal/kdf"
)

// deriveUnder is the trapdoor of word under an explicit bin key, computed
// directly: expansion, then reduction.
func deriveUnder(p Params, key []byte, word string) *bitindex.Vector {
	return bitindex.Reduce(kdf.ExpandString(key, word, p.HMACBytes()), p.R, p.D)
}

// A memoized trapdoor is the fresh derivation, and a keyword is hashed once
// per key however many queries use it.
func TestUserTrapdoorMemoMatchesFreshDerivation(t *testing.T) {
	o := sharedOwner(t)
	u := newUserFor(t, o, "memo-user")
	words := []string{"memo-a", "memo-b", "memo-c"}
	fetchTrapdoors(t, o, u, words)
	for round := 0; round < 3; round++ {
		for _, w := range words {
			got, err := u.Trapdoor(w)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(o.Trapdoor(w)) {
				t.Fatalf("round %d: memoized trapdoor of %q differs from the owner's derivation", round, w)
			}
		}
		if _, err := u.BuildQuery(words); err != nil {
			t.Fatal(err)
		}
	}
	if got := u.Costs.Snapshot().HashOps; got != int64(len(words)) {
		t.Errorf("user hashed %d times, want %d (once per keyword)", got, len(words))
	}
}

// Once the user has installed a different key for a bin, no trapdoor
// derived from the old key is returned again.
func TestUserTrapdoorDropsOldKeyVectors(t *testing.T) {
	o := sharedOwner(t)
	p := o.Params()
	u := newUserFor(t, o, "rekey-user")
	word := "rekey-word"
	bin := bins.GetBin(word, p.Bins)
	install := func(key []byte) {
		t.Helper()
		if err := u.InstallTrapdoorKeys([]int{bin}, [][]byte{key}); err != nil {
			t.Fatal(err)
		}
	}
	expect := func(label string, key []byte) {
		t.Helper()
		got, err := u.Trapdoor(word)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !got.Equal(deriveUnder(p, key, word)) {
			t.Fatalf("%s: trapdoor not derived from the current key", label)
		}
	}
	k1 := bytes.Repeat([]byte{1}, kdf.KeySize)
	k2 := bytes.Repeat([]byte{2}, kdf.KeySize)

	install(k1)
	expect("first key", k1)
	expect("first key, memoized", k1)

	// A different key for the bin.
	install(k2)
	expect("replaced key", k2)

	// Re-installing the same key keeps the memo.
	install(k2)
	before := u.Costs.Snapshot().HashOps
	expect("same key reinstalled", k2)
	if u.Costs.Snapshot().HashOps != before {
		t.Error("re-installing an unchanged key dropped its memoized trapdoor")
	}
}

// Queries race installs of new key generations: every trapdoor the
// installing goroutine asks for after installing a key is derived from that
// key, whatever the concurrent queries stored meanwhile, so a derivation
// that raced a key change is never stored. Run under -race.
func TestBuildQueryRacesKeyInstall(t *testing.T) {
	o := sharedOwner(t)
	p := o.Params()
	u := newUserFor(t, o, "hammer-user")
	words := []string{"hammer-a", "hammer-b", "hammer-c", "hammer-d"}
	binIDs := u.BinIDs(words)
	keyFor := func(gen, bin int) []byte { return []byte(fmt.Sprintf("gen-%04d-bin-%04d", gen, bin)) }
	keysFor := func(gen int) [][]byte {
		keys := make([][]byte, len(binIDs))
		for i, b := range binIDs {
			keys[i] = keyFor(gen, b)
		}
		return keys
	}
	if err := u.InstallTrapdoorKeys(binIDs, keysFor(0)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := u.BuildQuery(words[g%2 : g%2+2]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for gen := 1; gen <= 200; gen++ {
		if err := u.InstallTrapdoorKeys(binIDs, keysFor(gen)); err != nil {
			t.Error(err)
			break
		}
		for _, w := range words {
			got, err := u.Trapdoor(w)
			if err != nil {
				t.Errorf("generation %d: %v", gen, err)
				continue
			}
			if !got.Equal(deriveUnder(p, keyFor(gen, bins.GetBin(w, p.Bins)), w)) {
				t.Errorf("generation %d: trapdoor of %q is not derived from the installed key", gen, w)
			}
		}
	}
	close(stop)
	wg.Wait()
}
