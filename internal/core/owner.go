package core

import (
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"

	"mkse/internal/bins"
	"mkse/internal/bitindex"
	"mkse/internal/blindrsa"
	"mkse/internal/corpus"
	"mkse/internal/costs"
	"mkse/internal/kdf"
	"mkse/internal/sym"
)

// Owner is the data owner of Figure 1: it holds the per-bin HMAC keys, the
// RSA key pair and every per-document symmetric key; it builds search
// indices and encrypted documents for upload, answers trapdoor requests by
// bin ID, and performs blind decryptions during document retrieval. An Owner
// is safe for concurrent use.
type Owner struct {
	params  Params
	binKeys *bins.KeySet // fixed for the owner's lifetime, so read without mu
	rsaKey  *blindrsa.PrivateKey

	randomWords     []string           // the U non-dictionary keywords of Section 6
	randomTrapdoors []*bitindex.Vector // their index vectors, shared with users
	randomAll       *bitindex.Vector   // AND of all U, folded into every document level

	mu      sync.Mutex
	docKeys map[string][]byte              // docID → symmetric key
	users   map[string]*blindrsa.PublicKey // authorized users' signature keys

	// Costs tallies the owner-side operation counts of Table 2.
	Costs costs.Counters
}

// NewOwner creates a data owner with fresh bin keys, a fresh RSA key pair
// and U fresh random keywords (drawn from the given seed so experiments are
// reproducible; the seed influences only the random-keyword *strings*, whose
// indices are still keyed by the secret bin keys).
func NewOwner(p Params, randomSeed int64) (*Owner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	binKeys, err := bins.NewKeySet(p.Bins)
	if err != nil {
		return nil, err
	}
	return newOwner(p, binKeys, randomSeed)
}

// NewOwnerDeterministic creates an owner whose bin keys derive from keySeed
// (math/rand), making index and trapdoor material exactly reproducible.
// For experiments and tests only — production owners must use NewOwner's
// crypto/rand keys.
func NewOwnerDeterministic(p Params, randomSeed, keySeed int64) (*Owner, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	binKeys, err := bins.NewSeededKeySet(p.Bins, keySeed)
	if err != nil {
		return nil, err
	}
	return newOwner(p, binKeys, randomSeed)
}

func newOwner(p Params, binKeys *bins.KeySet, randomSeed int64) (*Owner, error) {
	rsaKey, err := blindrsa.GenerateKey(p.RSABits)
	if err != nil {
		return nil, err
	}
	o := &Owner{
		params:  p,
		binKeys: binKeys,
		rsaKey:  rsaKey,
		docKeys: make(map[string][]byte),
		users:   make(map[string]*blindrsa.PublicKey),
	}
	o.setRandomWords(corpus.RandomKeywords(p.U, randomSeed))
	return o, nil
}

// setRandomWords installs the U decoy keywords and derives their trapdoors
// and the AND of all of them.
func (o *Owner) setRandomWords(words []string) {
	o.randomWords = words
	o.randomTrapdoors = make([]*bitindex.Vector, len(words))
	o.randomAll = bitindex.NewOnes(o.params.R)
	for i, w := range words {
		o.randomTrapdoors[i] = o.keywordIndex(w)
		o.randomAll.AndInto(o.randomTrapdoors[i])
	}
}

// Params returns the scheme parameters.
func (o *Owner) Params() Params { return o.params }

// PublicKey returns the owner's RSA public key, published to users and the
// server.
func (o *Owner) PublicKey() *blindrsa.PublicKey { return o.rsaKey.Public() }

// RandomTrapdoors returns the index vectors of the U random keywords. They
// are part of every authorized user's enrollment package (a user needs V of
// them per query); they are never sent to the server.
func (o *Owner) RandomTrapdoors() []*bitindex.Vector {
	out := make([]*bitindex.Vector, len(o.randomTrapdoors))
	for i, v := range o.randomTrapdoors {
		out[i] = v.Clone()
	}
	return out
}

// keywordIndex computes the trapdoor I_w of a keyword: the r-bit reduction
// of the l-bit HMAC under the keyword's bin key (Section 4.1). This is the
// same computation on the owner (index generation) and user (query
// generation) sides.
func (o *Owner) keywordIndex(w string) *bitindex.Vector {
	o.Costs.HashOps.Add(1)
	return bitindex.Reduce(kdf.ExpandString(o.binKeys.KeyFor(w), w, o.params.HMACBytes()), o.params.R, o.params.D)
}

// Trapdoor exposes the keyword index for callers that legitimately hold the
// owner role (index construction, tests, attack experiments). Users obtain
// trapdoors through TrapdoorKeys instead.
func (o *Owner) Trapdoor(w string) *bitindex.Vector { return o.keywordIndex(w) }

// BuildIndex constructs the η-level search index of a document (Equations 1
// and 2 per level, Section 5 for the level structure). Every level also
// folds in all U random keywords so that randomized queries (which AND in V
// of them) still match at every level.
func (o *Owner) BuildIndex(doc *corpus.Document) (*SearchIndex, error) {
	out, err := o.BuildIndexes([]*corpus.Document{doc}, 1)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

func checkDocument(doc *corpus.Document) error {
	if doc == nil || doc.ID == "" {
		return fmt.Errorf("core: document without ID")
	}
	if len(doc.TermFreqs) == 0 {
		return fmt.Errorf("core: document %q has no keywords", doc.ID)
	}
	return nil
}

// foldIndex ANDs each level's keyword trapdoors (looked up in trapdoors,
// which must hold every level-1 keyword of doc; level 1 holds every keyword
// any level holds) into the random-keyword base.
func (o *Owner) foldIndex(doc *corpus.Document, trapdoors map[string]*bitindex.Vector) *SearchIndex {
	si := &SearchIndex{DocID: doc.ID, Levels: make([]*bitindex.Vector, o.params.Eta())}
	for li := 0; li < o.params.Eta(); li++ {
		words := o.params.Levels.KeywordsAtLevel(doc.TermFreqs, li+1)
		if len(words) == 0 {
			// No keyword clears this level's threshold. The all-ones index
			// (no zeros) matches no randomized query: the paper's Algorithm 1
			// stops here. Folding in the random keywords instead would make
			// the level a wildcard that *any* query has a good chance of
			// matching, inflating high-rank false accepts.
			si.Levels[li] = bitindex.NewOnes(o.params.R)
			continue
		}
		level := o.randomAll.Clone()
		for _, w := range words {
			level.AndInto(trapdoors[w])
			o.Costs.BitwiseProducts.Add(1)
		}
		si.Levels[li] = level
	}
	return si
}

// BuildIndexes builds search indices for a batch of documents using the
// given number of parallel workers (<= 0 means GOMAXPROCS). The paper notes
// that "index calculation problem is of highly parallelized nature"
// (Section 8.1). Every document is checked before any work starts; then
// each distinct keyword of the batch is derived once, the derivations
// spread over the workers, and each document's levels are folded from that
// table. The table lives for this call only, so a batch of one document
// (BuildIndex) derives exactly its own keywords. Results are returned in
// input order; the first invalid document's error fails the batch.
func (o *Owner) BuildIndexes(docs []*corpus.Document, workers int) ([]*SearchIndex, error) {
	for _, d := range docs {
		if err := checkDocument(d); err != nil {
			return nil, err
		}
	}
	trapdoors := make(map[string]*bitindex.Vector)
	for _, d := range docs {
		for _, w := range o.params.Levels.KeywordsAtLevel(d.TermFreqs, 1) {
			trapdoors[w] = nil
		}
	}
	words := make([]string, 0, len(trapdoors))
	for w := range trapdoors {
		words = append(words, w)
	}
	derived := make([]*bitindex.Vector, len(words))
	parallelFor(len(words), workers, func(i int) { derived[i] = o.keywordIndex(words[i]) })
	for i, w := range words {
		trapdoors[w] = derived[i]
	}
	out := make([]*SearchIndex, len(docs))
	parallelFor(len(docs), workers, func(i int) { out[i] = o.foldIndex(docs[i], trapdoors) })
	return out, nil
}

// parallelFor calls fn(i) for every i in [0, n) on up to workers goroutines
// (<= 0 means GOMAXPROCS) and returns once every call has returned.
func parallelFor(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// EncryptDocument encrypts a document body under a fresh symmetric key,
// records the key, and wraps it under the owner's RSA public key for storage
// at the server (Section 4.4).
func (o *Owner) EncryptDocument(doc *corpus.Document) (*EncryptedDocument, error) {
	if doc == nil || doc.ID == "" {
		return nil, fmt.Errorf("core: document without ID")
	}
	sk, err := sym.NewKey()
	if err != nil {
		return nil, err
	}
	ct, err := sym.Encrypt(sk, doc.Content)
	if err != nil {
		return nil, err
	}
	o.Costs.SymEncrypts.Add(1)
	encKey, err := o.rsaKey.PublicKey.EncryptKey(sk)
	if err != nil {
		return nil, err
	}
	o.Costs.ModExps.Add(1)
	o.mu.Lock()
	o.docKeys[doc.ID] = sk
	o.mu.Unlock()
	return &EncryptedDocument{ID: doc.ID, Ciphertext: ct, EncKey: encKey}, nil
}

// Prepare is the owner's full offline step for one document: build the
// search index and the encrypted payload.
func (o *Owner) Prepare(doc *corpus.Document) (*SearchIndex, *EncryptedDocument, error) {
	si, err := o.BuildIndex(doc)
	if err != nil {
		return nil, nil, err
	}
	enc, err := o.EncryptDocument(doc)
	if err != nil {
		return nil, nil, err
	}
	return si, enc, nil
}

// RegisterUser records an authorized user's signature verification key.
func (o *Owner) RegisterUser(userID string, pub *blindrsa.PublicKey) error {
	if userID == "" || pub == nil {
		return fmt.Errorf("core: invalid user registration")
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.users[userID]; dup {
		return fmt.Errorf("core: user %q already registered", userID)
	}
	o.users[userID] = pub
	return nil
}

// VerifyUser checks a user's signature over a protocol message; every
// user→owner request must pass this check (non-impersonation, Theorem 4).
func (o *Owner) VerifyUser(userID string, msg, sig []byte) error {
	o.mu.Lock()
	pub := o.users[userID]
	o.mu.Unlock()
	if pub == nil {
		return fmt.Errorf("core: unknown user %q", userID)
	}
	o.Costs.Verifications.Add(1)
	if err := pub.Verify(msg, sig); err != nil {
		return fmt.Errorf("core: user %q: %w", userID, err)
	}
	return nil
}

// TrapdoorKeys answers a trapdoor request: the secret HMAC keys of the
// requested bins (Section 4.2). The caller (protocol layer) authenticates
// the user first via VerifyUser. Unknown bin IDs are an error — a
// well-behaved client derives bin IDs from the public GetBin hash and cannot
// produce one out of range.
func (o *Owner) TrapdoorKeys(binIDs []int) ([][]byte, error) {
	out := make([][]byte, len(binIDs))
	for i, b := range binIDs {
		if b < 0 || b >= o.params.Bins {
			return nil, fmt.Errorf("core: bin %d out of range [0,%d)", b, o.params.Bins)
		}
		out[i] = o.binKeys.Key(b)
	}
	return out, nil
}

// BlindDecrypt performs the owner side of the blinded retrieval protocol:
// z̄ = z^d mod N. By construction the owner cannot tell which document key
// it is decrypting (Theorem 1).
func (o *Owner) BlindDecrypt(z *big.Int) (*big.Int, error) {
	o.Costs.ModExps.Add(1)
	return o.rsaKey.DecryptInt(z)
}

// DocumentKey returns the symmetric key of a document. It exists for the
// owner's own bookkeeping and for tests; the retrieval protocol never calls
// it — users learn keys only through BlindDecrypt.
func (o *Owner) DocumentKey(docID string) ([]byte, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	k, ok := o.docKeys[docID]
	return k, ok
}

// OwnerState is the data owner's complete persistent secret state: bin
// keys, RSA key, decoy keywords, per-document keys and enrolled users. It
// exists so an owner daemon can restart without invalidating the deployed
// indices and issued trapdoors. Treat serialized state as highly sensitive
// — it is the scheme's entire secret material.
type OwnerState struct {
	Params      Params
	RSAKeyDER   []byte
	BinKeys     [][]byte
	RandomWords []string
	DocKeys     map[string][]byte
	Users       map[string][]byte // userID → PKCS#1 public key
}

// ExportState snapshots the owner's secret state.
func (o *Owner) ExportState() *OwnerState {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := &OwnerState{
		Params:      o.params,
		RSAKeyDER:   o.rsaKey.Marshal(),
		BinKeys:     make([][]byte, o.params.Bins),
		RandomWords: append([]string(nil), o.randomWords...),
		DocKeys:     make(map[string][]byte, len(o.docKeys)),
		Users:       make(map[string][]byte, len(o.users)),
	}
	for i := 0; i < o.params.Bins; i++ {
		st.BinKeys[i] = append([]byte(nil), o.binKeys.Key(i)...)
	}
	for id, k := range o.docKeys {
		st.DocKeys[id] = append([]byte(nil), k...)
	}
	for id, pub := range o.users {
		st.Users[id] = pub.Marshal()
	}
	return st
}

// RestoreOwner rebuilds an owner from exported state.
func RestoreOwner(st *OwnerState) (*Owner, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil owner state")
	}
	if err := st.Params.Validate(); err != nil {
		return nil, fmt.Errorf("core: restoring owner: %w", err)
	}
	if len(st.RandomWords) != st.Params.U {
		return nil, fmt.Errorf("core: state has %d random words, scheme uses U=%d", len(st.RandomWords), st.Params.U)
	}
	binKeys, err := bins.NewKeySetFromKeys(st.BinKeys)
	if err != nil {
		return nil, fmt.Errorf("core: restoring bin keys: %w", err)
	}
	if binKeys.Bins() != st.Params.Bins {
		return nil, fmt.Errorf("core: state has %d bin keys, scheme uses %d bins", binKeys.Bins(), st.Params.Bins)
	}
	rsaKey, err := blindrsa.ParsePrivateKey(st.RSAKeyDER)
	if err != nil {
		return nil, fmt.Errorf("core: restoring RSA key: %w", err)
	}
	o := &Owner{
		params:  st.Params,
		binKeys: binKeys,
		rsaKey:  rsaKey,
		docKeys: make(map[string][]byte, len(st.DocKeys)),
		users:   make(map[string]*blindrsa.PublicKey, len(st.Users)),
	}
	for id, k := range st.DocKeys {
		o.docKeys[id] = append([]byte(nil), k...)
	}
	for id, der := range st.Users {
		pub, err := blindrsa.ParsePublicKey(der)
		if err != nil {
			return nil, fmt.Errorf("core: restoring user %q: %w", id, err)
		}
		o.users[id] = pub
	}
	o.setRandomWords(append([]string(nil), st.RandomWords...))
	return o, nil
}
