package core

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/big"
	mrand "math/rand"
	"sync"

	"mkse/internal/bins"
	"mkse/internal/bitindex"
	"mkse/internal/blindrsa"
	"mkse/internal/costs"
	"mkse/internal/kdf"
	"mkse/internal/sym"
)

// User is an authorized group member (Figure 1). It accumulates trapdoor
// bin keys obtained from the data owner, builds randomized query indices,
// and runs the blinded document-retrieval protocol. A User is safe for
// concurrent use.
type User struct {
	ID     string
	params Params

	ownerPub        *blindrsa.PublicKey
	signKey         *blindrsa.PrivateKey
	randomTrapdoors []*bitindex.Vector

	mu      sync.Mutex
	keys    *bins.KeySet               // partial: only requested bins are populated
	derived map[string]derivedTrapdoor // trapdoors derived from keys, ≤ maxDerived
	rng     *mrand.Rand                // drives the V-of-U random-keyword selection

	// Costs tallies the user-side operation counts of Table 2.
	Costs costs.Counters
}

// maxDerived bounds the user's memo of trapdoors derived from bin keys.
// Past it a trapdoor is derived on every use, as if there were no memo.
const maxDerived = 1 << 16

// derivedTrapdoor is a memoized trapdoor and the bin whose key it came from,
// so installing a different key for that bin can drop it.
type derivedTrapdoor struct {
	bin int
	v   *bitindex.Vector
}

// NewSigningKey generates a user signature key pair. Networked clients need
// the key *before* the User exists: the public half is registered with the
// owner at enrollment, and the enrollment response carries the parameters a
// User is built from. Pass the result to NewUserWithKey.
func NewSigningKey(bits int) (*blindrsa.PrivateKey, error) {
	return blindrsa.GenerateKey(bits)
}

// NewUser creates a user with a fresh signature key pair. ownerPub is the
// data owner's public key; randomTrapdoors is the enrollment package of the
// U random-keyword index vectors (Owner.RandomTrapdoors).
func NewUser(id string, p Params, ownerPub *blindrsa.PublicKey, randomTrapdoors []*bitindex.Vector) (*User, error) {
	signKey, err := NewSigningKey(p.RSABits)
	if err != nil {
		return nil, err
	}
	return NewUserWithKey(id, p, ownerPub, randomTrapdoors, signKey)
}

// NewUserWithKey creates a user around an existing signature key pair.
func NewUserWithKey(id string, p Params, ownerPub *blindrsa.PublicKey, randomTrapdoors []*bitindex.Vector, signKey *blindrsa.PrivateKey) (*User, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if signKey == nil {
		return nil, fmt.Errorf("core: user %q needs a signing key", id)
	}
	if id == "" {
		return nil, fmt.Errorf("core: user with empty ID")
	}
	if ownerPub == nil {
		return nil, fmt.Errorf("core: user %q needs the owner's public key", id)
	}
	if len(randomTrapdoors) != p.U {
		return nil, fmt.Errorf("core: user %q received %d random trapdoors, scheme uses U=%d", id, len(randomTrapdoors), p.U)
	}
	for i, v := range randomTrapdoors {
		if v == nil || v.Len() != p.R {
			return nil, fmt.Errorf("core: random trapdoor %d malformed", i)
		}
	}
	keys, err := bins.EmptyKeySet(p.Bins)
	if err != nil {
		return nil, err
	}
	// Seed the query-randomization RNG from crypto/rand; SeedQueryRNG can
	// re-seed deterministically for reproducible experiments.
	var seedBytes [8]byte
	if _, err := crand.Read(seedBytes[:]); err != nil {
		return nil, fmt.Errorf("core: seeding query rng: %w", err)
	}
	return &User{
		ID:              id,
		params:          p,
		ownerPub:        ownerPub,
		signKey:         signKey,
		randomTrapdoors: randomTrapdoors,
		keys:            keys,
		derived:         make(map[string]derivedTrapdoor),
		rng:             mrand.New(mrand.NewSource(int64(binary.LittleEndian.Uint64(seedBytes[:])))),
	}, nil
}

// SeedQueryRNG makes the V-of-U random keyword selection deterministic, for
// reproducible experiments. Production users keep the crypto-seeded default.
func (u *User) SeedQueryRNG(seed int64) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.rng = mrand.New(mrand.NewSource(seed))
}

// PublicKey returns the user's signature verification key, registered with
// the data owner at enrollment.
func (u *User) PublicKey() *blindrsa.PublicKey { return u.signKey.Public() }

// Sign signs a protocol message with the user's private key (Section 4.2:
// "the user signs his messages").
func (u *User) Sign(msg []byte) ([]byte, error) {
	u.Costs.Signatures.Add(1)
	return u.signKey.Sign(msg)
}

// BinIDs maps the query keywords to their deduplicated bin IDs — the only
// information about the keywords that a trapdoor request reveals to the
// owner.
func (u *User) BinIDs(words []string) []int {
	seen := make(map[int]bool, len(words))
	var out []int
	for _, w := range words {
		b := bins.GetBin(w, u.params.Bins)
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

// InstallTrapdoorKeys stores bin keys received from the data owner. binIDs
// and keys must be parallel slices as returned by Owner.TrapdoorKeys.
// Installing a different key for a bin drops the trapdoors derived from its
// old key.
func (u *User) InstallTrapdoorKeys(binIDs []int, keys [][]byte) error {
	if len(binIDs) != len(keys) {
		return fmt.Errorf("core: %d bin IDs with %d keys", len(binIDs), len(keys))
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	for i, b := range binIDs {
		var old []byte
		if b >= 0 && b < u.params.Bins {
			old = u.keys.Key(b)
		}
		if err := u.keys.SetKey(b, keys[i]); err != nil {
			return fmt.Errorf("core: installing trapdoor key: %w", err)
		}
		if old != nil && !bytes.Equal(old, keys[i]) {
			for w, d := range u.derived {
				if d.bin == b {
					delete(u.derived, w)
				}
			}
		}
	}
	return nil
}

// HasTrapdoorFor reports whether the user already holds the bin key
// covering a keyword, i.e. whether a new trapdoor exchange is needed.
// ("Since the user can use the same trapdoor for many queries ... this
// operation does not need to be performed every time", Section 3.)
func (u *User) HasTrapdoorFor(word string) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	_, err := u.keys.PartialKeyFor(word)
	return err == nil
}

// Trapdoor returns the keyword's index vector I_w: the Equation 1
// reduction computed from the installed bin key (the same computation the
// owner applies). A derived trapdoor is memoized until its bin's key is
// replaced, so a keyword is hashed once per key ("the user can use the same
// trapdoor for many queries", Section 3). The returned vector is shared and
// must not be modified.
func (u *User) Trapdoor(word string) (*bitindex.Vector, error) {
	u.mu.Lock()
	if d, ok := u.derived[word]; ok {
		u.mu.Unlock()
		return d.v, nil
	}
	key, err := u.keys.PartialKeyFor(word)
	u.mu.Unlock()
	if err != nil {
		return nil, err
	}
	// Derive outside the lock; store only if the key is still current, so a
	// key install racing this call never leaves a stale trapdoor behind.
	u.Costs.HashOps.Add(1)
	v := bitindex.Reduce(kdf.ExpandString(key, word, u.params.HMACBytes()), u.params.R, u.params.D)
	bin := bins.GetBin(word, u.params.Bins)
	u.mu.Lock()
	if bytes.Equal(u.keys.Key(bin), key) && len(u.derived) < maxDerived {
		u.derived[word] = derivedTrapdoor{bin: bin, v: v}
	}
	u.mu.Unlock()
	return v, nil
}

// BuildQuery assembles the randomized r-bit query index for the given search
// terms: the AND of their trapdoors plus the AND of a fresh random V-subset
// of the U random-keyword trapdoors (Sections 4.2 and 6). Two calls with the
// same keywords yield different indices — that is the point of query
// randomization.
func (u *User) BuildQuery(words []string) (*bitindex.Vector, error) {
	if len(words) == 0 {
		return nil, fmt.Errorf("core: empty query")
	}
	q := bitindex.NewOnes(u.params.R)
	for _, w := range words {
		td, err := u.Trapdoor(w)
		if err != nil {
			return nil, err
		}
		q.AndInto(td)
		u.Costs.BitwiseProducts.Add(1)
	}
	for _, ri := range u.pickRandomSubset() {
		q.AndInto(u.randomTrapdoors[ri])
		u.Costs.BitwiseProducts.Add(1)
	}
	return q, nil
}

// pickRandomSubset draws V distinct indices from [0, U), under the lock
// because the rng is not safe for concurrent use.
func (u *User) pickRandomSubset() []int {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.params.V == 0 || u.params.U == 0 {
		return nil
	}
	return u.rng.Perm(u.params.U)[:u.params.V]
}

// DecryptDocument runs the user's side of the retrieval protocol (Section
// 4.4) against an owner oracle (the network call performing BlindDecrypt):
// blind the wrapped key, have the owner raise it to d, unblind, then decrypt
// and authenticate the document body. The oracle never sees which EncKey the
// user is decrypting.
func (u *User) DecryptDocument(doc *EncryptedDocument, ownerDecrypt func(z *big.Int) (*big.Int, error)) ([]byte, error) {
	if doc == nil {
		return nil, fmt.Errorf("core: nil document")
	}
	// Blinding costs: 1 modexp (c^e) + 1 modmul; unblinding 1 modmul. The
	// paper's Table 2 books 3 modexp + 2 modmul per retrieval on the user
	// side (including signing); signing is counted by Sign.
	u.Costs.ModExps.Add(1)
	u.Costs.ModMuls.Add(2)
	sk, err := blindrsa.BlindDecryptKey(u.ownerPub, doc.EncKey, sym.KeySize, ownerDecrypt)
	if err != nil {
		return nil, fmt.Errorf("core: blind decryption of %q: %w", doc.ID, err)
	}
	u.Costs.SymDecrypts.Add(1)
	pt, err := sym.Decrypt(sk, doc.Ciphertext)
	if err != nil {
		return nil, fmt.Errorf("core: decrypting %q: %w", doc.ID, err)
	}
	return pt, nil
}
