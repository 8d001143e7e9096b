package mkse

import (
	"context"
	"fmt"
	"math/big"
	"slices"

	"mkse/internal/bitindex"
	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/corpus"
	"mkse/internal/protocol"
	"mkse/internal/rank"
	"mkse/internal/service"
)

// Re-exported scheme types. The implementation lives in internal/core; the
// aliases make the full API usable from outside the module.
type (
	// Params fixes every tunable of the scheme; see DefaultParams.
	Params = core.Params
	// Owner is the data-owner role: index generation, trapdoor service,
	// blind decryption.
	Owner = core.Owner
	// CloudServer is the semi-honest server role: storage and oblivious
	// ranked search.
	CloudServer = core.Server
	// User is the querying role: trapdoor acquisition, query generation,
	// blinded retrieval.
	User = core.User
	// Match is one ranked search hit.
	Match = core.Match
	// SearchIndex is a per-document η-level searchable index.
	SearchIndex = core.SearchIndex
	// EncryptedDocument is the encrypted payload stored at the server.
	EncryptedDocument = core.EncryptedDocument
	// Document is a plaintext document with keyword term frequencies.
	Document = corpus.Document
	// Levels is the ascending term-frequency thresholds of the η ranking
	// levels.
	Levels = rank.Levels
)

// Networked deployment types (Figure 1 over TCP).
type (
	// OwnerService serves enrollment, trapdoor and blind-decryption
	// endpoints around an Owner.
	OwnerService = service.OwnerService
	// CloudService serves upload, search and fetch endpoints around a
	// CloudServer.
	CloudService = service.CloudService
	// Client drives the full user protocol against remote daemons.
	Client = service.Client
	// UploadItem pairs an index with its encrypted document for upload.
	UploadItem = service.UploadItem
)

// Partitioned scatter-gather deployment types (internal/cluster).
type (
	// ClusterConfig is the static topology of a partitioned deployment:
	// partition i's addresses at index i.
	ClusterConfig = cluster.Config
	// ClusterPartition is one partition's primary address plus optional
	// read replicas.
	ClusterPartition = cluster.Partition
	// PartialError reports which partitions a scatter-gather result is
	// missing; errors.As-match it to use partial results deliberately.
	PartialError = cluster.PartialError
)

// ParseClusterTargets parses the "primary[/replica...],..." topology syntax
// of the daemons' -cloud flag.
func ParseClusterTargets(s string) (ClusterConfig, error) { return cluster.ParseTargets(s) }

// DialCluster connects a new user to the owner daemon and every partition
// of a partitioned cloud deployment, verifying each server's reported
// partition identity. Searches scatter-gather across all partitions;
// mutations route to the partition owning the document ID.
func DialCluster(userID, ownerAddr string, cfg ClusterConfig) (*Client, error) {
	return service.DialCluster(userID, ownerAddr, cfg)
}

// UploadAllCluster pushes prepared documents to a partitioned deployment,
// routing each to the partition owning its document ID.
func UploadAllCluster(cfg ClusterConfig, items []UploadItem) error {
	return service.UploadAllCluster(cfg, items)
}

// DeleteAllCluster removes documents from a partitioned deployment by ID.
func DeleteAllCluster(cfg ClusterConfig, docIDs []string) error {
	return service.DeleteAllCluster(cfg, docIDs)
}

// DefaultParams returns the paper's implementation parameters (r = 448,
// d = 6, δ = 250, U = 60, V = 30, 1024-bit RSA, ranking disabled).
func DefaultParams() Params { return core.DefaultParams() }

// NewOwner creates a data owner with fresh secret keys. randomSeed drives
// only the choice of decoy keyword strings, keeping experiments repeatable.
func NewOwner(p Params, randomSeed int64) (*Owner, error) { return core.NewOwner(p, randomSeed) }

// NewCloudServer creates an empty cloud server with one store shard per
// GOMAXPROCS core.
func NewCloudServer(p Params) (*CloudServer, error) { return core.NewServer(p) }

// NewCloudServerSharded creates an empty cloud server with an explicit store
// shard count and search worker-pool size (<= 0 picks defaults); see
// core.Server for the sharding architecture.
func NewCloudServerSharded(p Params, shards, workers int) (*CloudServer, error) {
	return core.NewServerSharded(p, shards, workers)
}

// Dial connects a new user to remote owner and cloud daemons and enrolls
// it. A single cloud daemon is a one-partition cluster: this is DialCluster
// over that topology.
func Dial(userID, ownerAddr, cloudAddr string) (*Client, error) {
	return service.Dial(userID, ownerAddr, cloudAddr)
}

// UploadAll pushes prepared documents to a remote cloud daemon.
func UploadAll(cloudAddr string, items []UploadItem) error {
	return service.UploadAll(cloudAddr, items)
}

// DeleteAll removes documents from a remote cloud daemon by ID — the
// owner-side retraction mirroring UploadAll.
func DeleteAll(cloudAddr string, docIDs []string) error {
	return service.DeleteAll(cloudAddr, docIDs)
}

// Tokenize extracts lower-cased alphanumeric keywords (length >= minLen)
// with term frequencies from text — the minimal analyzer for indexing real
// documents.
func Tokenize(text string, minLen int) map[string]int { return corpus.Tokenize(text, minLen) }

// System wires the three roles together in one process. It is the quickest
// way to use the library and the harness the examples and benchmarks build
// on; production deployments run the roles as separate daemons (cmd/).
type System struct {
	Owner *Owner
	Cloud *CloudServer
}

// NewSystem creates an owner and an empty cloud server sharing parameters.
func NewSystem(p Params) (*System, error) {
	owner, err := core.NewOwner(p, 0)
	if err != nil {
		return nil, err
	}
	cloud, err := core.NewServer(p)
	if err != nil {
		return nil, err
	}
	return &System{Owner: owner, Cloud: cloud}, nil
}

// AddDocument tokenizes content (keywords of 3+ letters), builds the search
// index, encrypts the body and uploads both to the cloud.
func (s *System) AddDocument(id string, content []byte) error {
	tf := corpus.Tokenize(string(content), 3)
	if len(tf) == 0 {
		return fmt.Errorf("mkse: document %q has no indexable keywords", id)
	}
	return s.AddDocumentWithKeywords(id, tf, content)
}

// AddDocumentWithKeywords indexes a document under explicit keyword term
// frequencies (callers with their own analyzers).
func (s *System) AddDocumentWithKeywords(id string, termFreqs map[string]int, content []byte) error {
	doc := &corpus.Document{ID: id, TermFreqs: termFreqs, Content: content}
	si, enc, err := s.Owner.Prepare(doc)
	if err != nil {
		return err
	}
	return s.Cloud.Upload(si, enc)
}

// DeleteDocument removes a document from the cloud: its ciphertext, wrapped
// key and every ranking level's index row. Deleting an unknown ID returns an
// error wrapping core.ErrNotFound.
func (s *System) DeleteDocument(id string) error {
	return s.Cloud.Delete(id)
}

// NewUser enrolls a user: generates its keys, registers the verification key
// with the owner and hands over the random-keyword trapdoor package.
func (s *System) NewUser(id string) (*User, error) {
	u, err := core.NewUser(id, s.Owner.Params(), s.Owner.PublicKey(), s.Owner.RandomTrapdoors())
	if err != nil {
		return nil, err
	}
	if err := s.Owner.RegisterUser(id, u.PublicKey()); err != nil {
		return nil, err
	}
	return u, nil
}

// FetchTrapdoors runs the trapdoor exchange for any keywords the user does
// not already cover, with signature verification as on the wire.
func (s *System) FetchTrapdoors(u *User, words []string) error {
	var missing []string
	for _, w := range words {
		if !u.HasTrapdoorFor(w) {
			missing = append(missing, w)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	binIDs := u.BinIDs(missing)
	msg := protocol.SignableTrapdoor(u.ID, binIDs)
	sig, err := u.Sign(msg)
	if err != nil {
		return err
	}
	if err := s.Owner.VerifyUser(u.ID, msg, sig); err != nil {
		return err
	}
	keys, err := s.Owner.TrapdoorKeys(binIDs)
	if err != nil {
		return err
	}
	return u.InstallTrapdoorKeys(binIDs, keys)
}

// Search runs the ranked search for one keyword set, returning up to topK
// matches (topK <= 0 returns all): a SearchBatch of one query.
func (s *System) Search(u *User, words []string, topK int) ([]Match, error) {
	res, err := s.SearchBatch(u, [][]string{words}, topK)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// SearchBatch obtains any missing trapdoors for every keyword set, builds
// one randomized query per set and evaluates them all in a single sharded
// pass over the cloud store. Result i corresponds to queries[i].
func (s *System) SearchBatch(u *User, queries [][]string, topK int) ([][]Match, error) {
	if err := s.FetchTrapdoors(u, slices.Concat(queries...)); err != nil {
		return nil, err
	}
	qs := make([]*bitindex.Vector, len(queries))
	for i, words := range queries {
		q, err := u.BuildQuery(words)
		if err != nil {
			return nil, err
		}
		qs[i] = q
	}
	return s.Cloud.SearchBatch(context.Background(), qs, topK)
}

// Retrieve fetches a document from the cloud and decrypts it through the
// blinded protocol with the owner.
func (s *System) Retrieve(u *User, docID string) ([]byte, error) {
	doc, err := s.Cloud.Fetch(docID)
	if err != nil {
		return nil, err
	}
	return u.DecryptDocument(doc, func(z *big.Int) (*big.Int, error) {
		return s.Owner.BlindDecrypt(z)
	})
}
