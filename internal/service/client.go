package service

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"sync"

	"mkse/internal/bitindex"
	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/protocol"
	"mkse/internal/trace"
)

// Client drives the user's side of the full protocol against a remote owner
// daemon and a partitioned cloud. It wraps a core.User created during
// enrollment. A Client serializes its protocol exchanges and is safe for
// concurrent use.
//
// There is one client path. A single cloud daemon is a one-partition
// cluster: Dial builds that topology and returns what DialCluster returns.
// The client is three layers, one per file: the transport (endpoint.go: one
// lazily redialed, deadline-bounded connection per daemon), the router
// (router.go: the partition map, the per-partition read order and mutate
// routine, scatter-gather and merge — the same router the owner's bulk
// verbs use) and the crypto session (this file: enrollment, the trapdoor
// cache, query building and blind decryption). The router's
// PartitionTimeout, MaxReplicaLag and ReplicaProbeEvery are set on the
// Client.
type Client struct {
	UserID string

	// Tracer, when set, samples this client's searches into distributed
	// traces: the coordinator records the root span, scatter/partition/
	// attempt children, and grafts in the spans each partition server echoes
	// on its response — the whole cross-daemon tree assembles client-side.
	// Use TraceSearch to force-sample one search regardless of the sample
	// rate.
	Tracer *trace.Tracer

	router

	mu    sync.Mutex
	owner *endpoint
	user  *core.User
}

// Dial connects to the owner daemon and a single cloud daemon: a
// one-partition cluster (see DialCluster).
func Dial(userID, ownerAddr, cloudAddr string) (*Client, error) {
	return DialCluster(userID, ownerAddr, onePartition(cloudAddr))
}

// DialCluster connects to the owner daemon and to every partition primary in
// the topology, verifies each server's reported partition identity against
// its position in the config, and enrolls the user with the data owner,
// receiving the scheme parameters, the owner's public key and the
// random-keyword trapdoors. The returned Client routes Delete/Retrieve to
// the partition owning the document ID and fans Search/SearchBatch out to
// every partition, merging the per-partition top-τ lists into the global
// order a single-node scan would produce.
//
// When a partition's primary cannot be reached mid-request, the client
// follows a promotion among that partition's replicas, and reads fall back
// to the replicas themselves (see readPart for the order); if none answers,
// Search/SearchBatch return the merged results from the surviving
// partitions alongside a *cluster.PartialError naming the dead ones.
func DialCluster(userID, ownerAddr string, cfg cluster.Config) (*Client, error) {
	r, err := newRouter(cfg)
	if err != nil {
		return nil, err
	}
	c := &Client{UserID: userID, router: r, owner: &endpoint{addr: ownerAddr}}
	if err := c.owner.dial(DialTimeout); err != nil {
		return nil, fmt.Errorf("service: dialing owner: %w", err)
	}
	err = c.dialPrimaries()
	if err == nil {
		err = c.enroll()
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// ownerCall runs one exchange with the owner daemon under DialTimeout,
// redialing it if an earlier exchange broke the connection.
func (c *Client) ownerCall(m *protocol.Message) (*protocol.Message, error) {
	return c.owner.call(m, DialTimeout, DialTimeout)
}

// enroll bootstraps the user. The signature key pair must exist before the
// first signed request, but the core.User needs the scheme parameters the
// enrollment response delivers — so: generate the key, enroll its public
// half, then build the User around the key and the returned parameters.
func (c *Client) enroll() error {
	signKey, err := core.NewSigningKey(core.DefaultParams().RSABits)
	if err != nil {
		return fmt.Errorf("service: generating signature key: %w", err)
	}
	resp, err := c.ownerCall(&protocol.Message{EnrollReq: &protocol.EnrollRequest{
		UserID:  c.UserID,
		UserPub: protocol.FromPublicKey(signKey.Public()),
	}})
	if err != nil {
		return fmt.Errorf("service: enrolling: %w", err)
	}
	if resp.EnrollResp == nil {
		return fmt.Errorf("service: enroll response missing")
	}
	params, err := resp.EnrollResp.Params.ToParams()
	if err != nil {
		return fmt.Errorf("service: invalid parameters from owner: %w", err)
	}
	ownerPub, err := resp.EnrollResp.OwnerPub.ToPublicKey()
	if err != nil {
		return fmt.Errorf("service: invalid owner key: %w", err)
	}
	rts := make([]*bitindex.Vector, len(resp.EnrollResp.RandomTrapdoors))
	for i, raw := range resp.EnrollResp.RandomTrapdoors {
		v, err := unmarshalVector(raw)
		if err != nil {
			return fmt.Errorf("service: invalid random trapdoor %d: %w", i, err)
		}
		rts[i] = v
	}
	c.user, err = core.NewUserWithKey(c.UserID, params, ownerPub, rts, signKey)
	if err != nil {
		return fmt.Errorf("service: building user state: %w", err)
	}
	return nil
}

// User exposes the underlying core.User (for cost inspection in experiments).
func (c *Client) User() *core.User { return c.user }

// Close tears down the owner, primary and replica connections. It waits
// for an exchange in flight, which is bounded by PartitionTimeout (cloud)
// or DialTimeout (owner).
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return errors.Join(c.owner.drop(), c.dropAll())
}

// EnsureTrapdoors fetches trapdoor material for any keyword of the given
// keyword sets the user does not already cover, in one signed request
// (step 1 of Figure 1); a word shared by several sets is requested once.
// It is a no-op when everything is cached — the paper's point that
// trapdoors are reusable across queries.
func (c *Client) EnsureTrapdoors(queries ...[]string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var missing []string
	for _, words := range queries {
		for _, w := range words {
			if !c.user.HasTrapdoorFor(w) {
				missing = append(missing, w)
			}
		}
	}
	if len(missing) == 0 {
		return nil
	}
	binIDs := c.user.BinIDs(missing)
	sig, err := c.user.Sign(protocol.SignableTrapdoor(c.UserID, binIDs))
	if err != nil {
		return err
	}
	resp, err := c.ownerCall(&protocol.Message{TrapdoorReq: &protocol.TrapdoorRequest{
		UserID: c.UserID,
		BinIDs: binIDs,
		Sig:    sig,
	}})
	if err != nil {
		return fmt.Errorf("service: trapdoor request: %w", err)
	}
	td := resp.TrapdoorResp
	if td == nil {
		return fmt.Errorf("service: trapdoor response missing")
	}
	return c.user.InstallTrapdoorKeys(td.BinIDs, td.Keys)
}

// Match is one ranked search hit: core.Match, as the wire carries it.
type Match = core.Match

// Search builds a randomized query index for the keywords and submits it to
// the cloud (step 2 of Figure 1), returning up to topK rank-ordered matches:
// a SearchBatch of one.
func (c *Client) Search(words []string, topK int) ([]Match, error) {
	out, _, err := c.search([][]string{words}, topK, false)
	return first(out), err
}

// TraceSearch is Search with its trace forced on: the search is sampled
// regardless of the client Tracer's rate, and the assembled span tree —
// coordinator root, per-partition fan-out, and every span the servers
// echoed back — is returned alongside the matches (render it with
// trace.FormatTree). The client must have a Tracer set.
func (c *Client) TraceSearch(words []string, topK int) ([]Match, []trace.Span, error) {
	if c.Tracer == nil {
		return nil, nil, fmt.Errorf("service: TraceSearch requires a client Tracer")
	}
	out, spans, err := c.search([][]string{words}, topK, true)
	return first(out), spans, err
}

// SearchBatch builds one randomized query index per keyword set and submits
// them all in a single round trip per partition; each cloud daemon
// evaluates the batch in one sharded pass. Result i corresponds to
// queries[i], each truncated to topK. A batch of more than
// protocol.MaxBatchQueries keyword sets is refused before anything is sent.
func (c *Client) SearchBatch(queries [][]string, topK int) ([][]Match, error) {
	if len(queries) == 0 {
		return nil, nil
	}
	if len(queries) > protocol.MaxBatchQueries {
		return nil, fmt.Errorf("service: batch of %d queries exceeds the limit of %d", len(queries), protocol.MaxBatchQueries)
	}
	out, _, err := c.search(queries, topK, false)
	return out, err
}

// first is a one-query search's result: nil when the search failed
// outright, the merged matches otherwise (a partial result included).
func first(out [][]Match) []Match {
	if out == nil {
		return nil
	}
	return out[0]
}

// startRoot opens the client-side root span of one request when a Tracer is
// set and samples it (always, when forced).
func (c *Client) startRoot(name string, force bool) (context.Context, *trace.ActiveSpan) {
	if c.Tracer == nil {
		return context.Background(), nil
	}
	return c.Tracer.StartRequest(context.Background(), name, force)
}

// endRoot closes a root span, returning the trace as assembled at the
// coordinator.
func endRoot(root *trace.ActiveSpan, err error) []trace.Span {
	if root == nil {
		return nil
	}
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.End()
	return root.Spans()
}

// search is the one search path: fetch any missing trapdoors, build one
// randomized query index per keyword set, send them to every partition as
// one batch, merge per query. With a Tracer set the request may be sampled
// (always, when forced) under a "client:search" root span.
func (c *Client) search(queries [][]string, topK int, force bool) ([][]Match, []trace.Span, error) {
	if err := c.EnsureTrapdoors(queries...); err != nil {
		return nil, nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ctx, root := c.startRoot("client:search", force)
	if root != nil {
		keywords := 0
		for _, words := range queries {
			keywords += len(words)
		}
		root.SetAttr("queries", strconv.Itoa(len(queries)))
		root.SetAttr("keywords", strconv.Itoa(keywords))
		root.SetAttr("topk", strconv.Itoa(topK))
	}
	var out [][]Match
	wire, err := c.buildQueries(queries)
	if err == nil {
		out, err = c.scatterSearchBatch(ctx, wire, topK)
	}
	return out, endRoot(root, err), err
}

// buildQueries builds and encodes one randomized query index per keyword
// set. Caller holds c.mu.
func (c *Client) buildQueries(queries [][]string) ([][]byte, error) {
	wire := make([][]byte, len(queries))
	for i, words := range queries {
		q, err := c.user.BuildQuery(words)
		if err != nil {
			return nil, fmt.Errorf("service: query %d: %w", i, err)
		}
		wire[i] = marshalVector(q)
	}
	return wire, nil
}

// Retrieve fetches an encrypted document from the cloud (step 3) and runs
// the blinded decryption protocol with the owner (step 4), returning the
// plaintext.
func (c *Client) Retrieve(docID string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fetch := &protocol.Message{FetchReq: &protocol.FetchRequest{DocID: docID}}
	resp, _, err := c.readPart(context.Background(), c.owning(docID), fetch, false)
	if err != nil {
		return nil, fmt.Errorf("service: fetch: %w", err)
	}
	if resp.FetchResp == nil {
		return nil, fmt.Errorf("service: fetch response missing")
	}
	doc := &core.EncryptedDocument{
		ID:         resp.FetchResp.DocID,
		Ciphertext: resp.FetchResp.Ciphertext,
		EncKey:     resp.FetchResp.EncKey,
	}
	return c.user.DecryptDocument(doc, func(z *big.Int) (*big.Int, error) {
		zb := z.Bytes()
		sig, err := c.user.Sign(protocol.SignableBlindDecrypt(c.UserID, zb))
		if err != nil {
			return nil, err
		}
		r, err := c.ownerCall(&protocol.Message{BlindDecryptReq: &protocol.BlindDecryptRequest{
			UserID: c.UserID,
			Z:      zb,
			Sig:    sig,
		}})
		if err != nil {
			return nil, err
		}
		if r.BlindDecryptResp == nil {
			return nil, fmt.Errorf("service: blind-decrypt response missing")
		}
		return new(big.Int).SetBytes(r.BlindDecryptResp.ZBar), nil
	})
}

// Stats fetches the cloud's operational counters in one round trip per
// partition and folds them into one view (see AggregateClusterStats): for a
// single daemon that is its own document and shard counts, mutation epoch,
// WAL position and replication lag, and query-result cache counters. It
// asks each partition's primary first, whose answer describes the server
// this client mutates.
func (c *Client) Stats() (*protocol.StatsResponse, error) {
	parts, err := c.ClusterStats()
	if err != nil {
		return nil, err
	}
	return AggregateClusterStats(parts), nil
}

// ClusterStats fetches one StatsResponse per partition, in partition order,
// falling back to replicas for unreachable primaries. When partitions are
// missing entirely, the surviving entries are returned (nil at the failed
// indices) alongside a *cluster.PartialError.
func (c *Client) ClusterStats() ([]*protocol.StatsResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scatterStats()
}

// Delete asks the cloud daemon owning the document to remove it (the
// router's mutate routine). In the paper's model removal is the data
// owner's act; the client method exists for deployments where the owner
// drives the cloud through the same
// connection pair.
func (c *Client) Delete(docID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deleteDoc(docID)
}
